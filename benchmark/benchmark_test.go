package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesRegistry keeps BENCHMARK.json and the metric tables in
// step: same names in the same order, same units, directions and bounds.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	check := func(kind string, listed []manifestMetric, defined []metric) {
		if len(listed) != len(defined) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(listed), len(defined))
		}
		for i, d := range defined {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			want := manifestMetric{Name: d.name, Unit: d.unit, Better: better, Bound: d.bound}
			if listed[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, listed[i], want)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, m.Workloads[i], w.name, w.why)
		}
	}
}

// TestSmoke runs every workload's two passes on the smoke shape and checks that
// every metric of BENCHMARK.json comes out exactly once per pass, under a
// well-formed name, as a finite number.
func TestSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2*len(workloads) {
		t.Fatalf("%d records, want one per workload and pass = %d", len(lines), 2*len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, line := range lines {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := endToEnd
		if rec.Trace == 1 {
			want = perLayer
		}
		if rec.Workload != workloads[i/2].name || rec.Trace != i%2 || !rec.Correct || rec.Attempted != 3 {
			t.Errorf("record %d: %s trace=%d correct=%v attempted=%d", i, rec.Workload, rec.Trace, rec.Correct, rec.Attempted)
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%s trace=%d: %d metrics, want %d", rec.Workload, rec.Trace, len(rec.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.name]
			if !ok || got.Unit != m.unit || !nameRE.MatchString(m.name) {
				t.Errorf("%s trace=%d: metric %q: present=%v unit=%q", rec.Workload, rec.Trace, m.name, ok, got.Unit)
			}
		}
		// The printed table names each metric exactly once per pass.
		for _, m := range want {
			row := fmt.Sprintf("  %-36s ", m.name)
			if n := strings.Count(stdout.String(), row); n != len(workloads) {
				t.Errorf("metric %q printed %d times, want once per workload", m.name, n)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {600, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// writeSet writes a -json file with one untraced steady_quiet record per
// value of round_ms_p50.
func writeSet(t *testing.T, name string, latencies ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for _, v := range latencies {
		rec := record{Workload: "steady_quiet", result: result{Correct: true, Attempted: 1, Metrics: map[string]measurement{
			"round_ms_p50":  {Value: v, Unit: "ms"},
			"objective_p50": {Value: 357, Unit: "cost"},
		}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompare(t *testing.T) {
	base := writeSet(t, "a.json", 100, 101, 99)
	for _, c := range []struct {
		name      string
		other     string
		verdict   string
		regressed bool
	}{
		{"same", writeSet(t, "b.json", 100, 102, 99), "within", false},
		{"40% slower", writeSet(t, "c.json", 140, 141, 139), "regressed", true},
		{"20% slower", writeSet(t, "g.json", 120, 121, 119), "within", false},
		{"40% faster", writeSet(t, "d.json", 60, 61, 59), "within", false},
		{"noisy", writeSet(t, "e.json", 60, 120, 180), "unresolved", false},
	} {
		var out bytes.Buffer
		regressed, err := compare(base, c.other, &out)
		if err != nil {
			t.Fatal(err)
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "round_ms_p50") {
				row = line
			}
		}
		if regressed != c.regressed || !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: regressed=%v, row %q; want regressed=%v, verdict %s", c.name, regressed, row, c.regressed, c.verdict)
		}
		if !strings.Contains(out.String(), "objective_p50") {
			t.Errorf("%s: the exact-repeat metric is missing:\n%s", c.name, out.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", base, writeSet(t, "f.json", 130)}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare with a regression exited %d, want 1", code)
	}
}

func TestVerify(t *testing.T) {
	region, err := topology.Generate(topology.GenSpec{Name: "t", DCs: 1, MSBsPerDC: 2, RacksPerMSB: 1, ServersPerRack: 2, Seed: deploymentSeed})
	if err != nil {
		t.Fatal(err)
	}
	rsvs := []reservation.Reservation{{ID: 0, Name: "a", RRUs: 2, CountBased: true, Policy: reservation.DefaultPolicy()}}
	states := broker.New(region).Snapshot()
	free := reservation.Unassigned

	if short, err := verify(region, rsvs, states, []reservation.ID{0, 0, free, reservation.SharedBuffer}); err != nil || short != "" {
		t.Errorf("a covering assignment: shortfall %q, err %v", short, err)
	}
	if _, err := verify(region, rsvs, states, []reservation.ID{0, 0, free}); err == nil {
		t.Error("a short targets slice passed")
	}
	if _, err := verify(region, rsvs, states, []reservation.ID{0, 0, 5, free}); err == nil {
		t.Error("a target that is no reservation passed")
	}
	if short, err := verify(region, rsvs, states, []reservation.ID{0, free, free, free}); err != nil || !strings.Contains(short, "reservation 0") {
		t.Errorf("one server for 2 RRUs: shortfall %q, err %v", short, err)
	}
	// A failed server is no capacity, and may not change hands.
	states[1].Unavail, states[1].Current = broker.RandomFailure, 0
	if short, _ := verify(region, rsvs, states, []reservation.ID{0, 0, free, free}); short == "" {
		t.Error("a failed server counted as capacity")
	}
	if _, err := verify(region, rsvs, states, []reservation.ID{0, free, 0, free}); err == nil {
		t.Error("a failed server that moved passed")
	}
}
