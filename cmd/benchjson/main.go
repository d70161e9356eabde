// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark baseline on stdout.
//
// Each benchmark line becomes a record with the parsed per-op metrics keyed
// by unit (ns/op, B/op, allocs/op, plus any b.ReportMetric units such as
// objective). The original text lines are preserved verbatim under
// "benchfmt_lines" so the Go benchmark format can be reconstructed for
// benchstat:
//
//	jq -r '.benchfmt_lines[]' BENCH_solver.json > old.txt
//	benchstat old.txt new.txt
//
// With -compare FILE, the stdin results are instead diffed against the
// baseline JSON in FILE and printed as an aligned per-metric delta table
// (negative deltas are improvements for cost metrics like ns/op, B/op, and
// allocs/op). The comparison is informational — it never fails — because
// absolute numbers are machine-dependent; it exists so perf PRs have a
// one-command report and CI keeps the bench + tooling path compiling and
// parsing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Baseline is the full converted report.
type Baseline struct {
	Goos          string            `json:"goos,omitempty"`
	Goarch        string            `json:"goarch,omitempty"`
	Pkg           string            `json:"pkg,omitempty"`
	CPU           string            `json:"cpu,omitempty"`
	Benchmarks    []Bench           `json:"benchmarks"`
	POPKSweep     []POPSweep        `json:"pop_ksweep,omitempty"`
	RoundIncr     *RoundIncremental `json:"round_incremental,omitempty"`
	BenchfmtLines []string          `json:"benchfmt_lines"`
}

// POPSweep is one row of the derived partitioned-backend ablation: the pop
// backend at k partitions against the serial MIP baseline on the same large
// workload (BenchmarkBackendMIPLarge/workers=1). Speedup is the MIP ns/op
// over the pop ns/op; ObjectiveDeltaPct is the allocation-quality price of
// partitioning ((pop−mip)/mip·100, positive = worse). Repeated runs of one k
// (-count) make one row: NsPerOp is their median, NsPerOpRuns every run.
type POPSweep struct {
	Partitions        int       `json:"partitions"`
	NsPerOp           float64   `json:"ns_per_op"`
	NsPerOpRuns       []float64 `json:"ns_per_op_runs"`
	Speedup           float64   `json:"speedup_vs_mip"`
	Objective         float64   `json:"objective"`
	ObjectiveDeltaPct float64   `json:"objective_delta_pct"`
}

// RoundIncremental is the derived incremental-model-build summary: the
// multi-round steady-state benchmark (BenchmarkRoundIncremental) with broker
// deltas feeding the solver's model cache (mode=patch) against the same
// mutation stream rebuilt cold every round (mode=cold). BuildSpeedup is the
// cold model-build time over the patch time — the ISSUE's ≥5× target —
// and ObjectiveDelta must be 0: patching is only taken when the patched
// model is bit-for-bit identical to a rebuild. The round times are the median
// and the slowest of the benchmark's individually timed rounds, which — unlike
// ns/op — do not move with the iteration count.
type RoundIncremental struct {
	PatchBuildNs    float64 `json:"patch_build_ns"`
	ColdBuildNs     float64 `json:"cold_build_ns"`
	BuildSpeedup    float64 `json:"build_speedup"`
	PatchRounds     float64 `json:"patch_rounds_frac"`
	ObjectiveDelta  float64 `json:"objective_delta"`
	PatchRoundP50Ns float64 `json:"patch_round_p50_ns"`
	PatchRoundMaxNs float64 `json:"patch_round_max_ns"`
	ColdRoundP50Ns  float64 `json:"cold_round_p50_ns"`
	ColdRoundMaxNs  float64 `json:"cold_round_max_ns"`
}

func main() {
	compare := flag.String("compare", "", "baseline JSON file to diff the stdin results against")
	flag.Parse()

	var out Baseline
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			out.BenchfmtLines = append(out.BenchfmtLines, line)
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			out.BenchfmtLines = append(out.BenchfmtLines, line)
		case strings.HasPrefix(line, "pkg:"):
			out.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			out.BenchfmtLines = append(out.BenchfmtLines, line)
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			out.BenchfmtLines = append(out.BenchfmtLines, line)
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			out.Benchmarks = append(out.Benchmarks, b)
			out.BenchfmtLines = append(out.BenchfmtLines, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare != "" {
		if err := printComparison(os.Stdout, *compare, out); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	out.POPKSweep = derivePOPKSweep(out.Benchmarks)
	out.RoundIncr = deriveRoundIncremental(out.Benchmarks)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// printComparison diffs cur against the baseline JSON at path and writes an
// aligned per-metric delta table. Benchmarks present on only one side are
// listed so renames don't vanish silently.
func printComparison(w *os.File, path string, cur Baseline) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	baseBy := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}

	fmt.Fprintf(w, "baseline: %s (%s)\n", path, base.CPU)
	fmt.Fprintf(w, "%-50s %-12s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta")
	matched := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		b, ok := baseBy[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-50s (not in baseline)\n", c.Name)
			continue
		}
		matched[b.Name] = true
		units := make([]string, 0, len(c.Metrics))
		for u := range c.Metrics {
			if _, both := b.Metrics[u]; both {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			bv, cv := b.Metrics[u], c.Metrics[u]
			delta := "n/a"
			if bv != 0 {
				delta = fmt.Sprintf("%+.1f%%", (cv-bv)/math.Abs(bv)*100)
			}
			fmt.Fprintf(w, "%-50s %-12s %14.5g %14.5g %9s\n", c.Name, u, bv, cv, delta)
		}
	}
	for _, b := range base.Benchmarks {
		if !matched[b.Name] {
			fmt.Fprintf(w, "%-50s (baseline only: not run)\n", b.Name)
		}
	}
	return nil
}

// derivePOPKSweep computes the pop-vs-mip ablation rows from the parsed
// benchmarks: every BenchmarkBackendPOPLarge/partitions=K result paired with
// the serial BenchmarkBackendMIPLarge/workers=1 baseline. Returns nil when
// either side is absent (e.g. a bench run filtered to other benchmarks).
func derivePOPKSweep(benches []Bench) []POPSweep {
	var mip *Bench
	for i := range benches {
		if trimProcs(benches[i].Name) == "BenchmarkBackendMIPLarge/workers=1" {
			mip = &benches[i]
			break
		}
	}
	if mip == nil {
		return nil
	}
	var rows []POPSweep
	for _, b := range benches {
		name := trimProcs(b.Name)
		const prefix = "BenchmarkBackendPOPLarge/partitions="
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		k, err := strconv.Atoi(name[len(prefix):])
		if err != nil {
			continue
		}
		i := slices.IndexFunc(rows, func(r POPSweep) bool { return r.Partitions == k })
		if i < 0 {
			rows = append(rows, POPSweep{Partitions: k, Objective: b.Metrics["objective"]})
			i = len(rows) - 1
		}
		rows[i].NsPerOpRuns = append(rows[i].NsPerOpRuns, b.Metrics["ns/op"])
	}
	for i := range rows {
		row := &rows[i]
		runs := slices.Clone(row.NsPerOpRuns)
		slices.Sort(runs)
		row.NsPerOp = (runs[(len(runs)-1)/2] + runs[len(runs)/2]) / 2
		if row.NsPerOp > 0 {
			row.Speedup = mip.Metrics["ns/op"] / row.NsPerOp
		}
		if mo := mip.Metrics["objective"]; mo != 0 {
			row.ObjectiveDeltaPct = (row.Objective - mo) / math.Abs(mo) * 100
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Partitions < rows[j].Partitions })
	return rows
}

// deriveRoundIncremental pairs BenchmarkRoundIncremental's patch and cold
// modes into the incremental-build summary. Returns nil when either mode is
// absent (filtered bench run).
func deriveRoundIncremental(benches []Bench) *RoundIncremental {
	var patch, cold *Bench
	for i := range benches {
		switch trimProcs(benches[i].Name) {
		case "BenchmarkRoundIncremental/mode=patch":
			patch = &benches[i]
		case "BenchmarkRoundIncremental/mode=cold":
			cold = &benches[i]
		}
	}
	if patch == nil || cold == nil {
		return nil
	}
	r := &RoundIncremental{
		PatchBuildNs:   patch.Metrics["buildns/op"],
		ColdBuildNs:    cold.Metrics["buildns/op"],
		PatchRounds:    patch.Metrics["patchrounds/op"],
		ObjectiveDelta: patch.Metrics["objective"] - cold.Metrics["objective"],

		PatchRoundP50Ns: patch.Metrics["p50-ns/round"],
		PatchRoundMaxNs: patch.Metrics["max-ns/round"],
		ColdRoundP50Ns:  cold.Metrics["p50-ns/round"],
		ColdRoundMaxNs:  cold.Metrics["max-ns/round"],
	}
	if r.PatchBuildNs > 0 {
		r.BuildSpeedup = r.ColdBuildNs / r.PatchBuildNs
	}
	return r
}

// trimProcs strips the "-N" GOMAXPROCS suffix go test appends to benchmark
// names, so lookups are stable across machines.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBenchLine parses "BenchmarkName-8  N  v1 unit1  v2 unit2 ...".
func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
