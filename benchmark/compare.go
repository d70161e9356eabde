package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet is the records of one -json file: workload → trace → metric →
// the values of the set's runs.
type runSet map[string]map[int]map[string][]float64

func readRunSet(path string) (runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[int]map[string][]float64{0: {}, 1: {}}
		}
		for name, m := range rec.Metrics {
			byName := set[rec.Workload][rec.Trace]
			byName[name] = append(byName[name], m.Value)
		}
	}
	return set, nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(samples, n=4) gives them; it needs two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return ratio(q3-q1, median(samples))
}

func allEqual(a, b []float64) bool {
	for _, v := range append(append([]float64(nil), a...), b...) {
		if v != a[0] {
			return false
		}
	}
	return true
}

// compare prints, per workload and end-to-end metric, both sets' medians,
// the change from a to b, the bound and a verdict: within, regressed (b's
// median is worse than a's by more than the bound) or unresolved (a set's
// own runs spread wider than the bound). Counts that repeat exactly are
// compared with ==. It reports whether anything regressed.
func compare(aPath, bPath string, out io.Writer) (regressed bool, err error) {
	a, err := readRunSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-14s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a[w.name][0][m.name], b[w.name][0][m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			worse := change
			if m.higher {
				worse = -change
			}
			verdict := "within"
			switch {
			case m.exact && allEqual(va, vb):
			case spread(va) > m.bound || spread(vb) > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-14s %-20s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				w.name, m.name, ma, mb, 100*change, 100*m.bound, verdict)
		}
		same := 0
		for _, m := range perLayer {
			va, vb := a[w.name][1][m.name], b[w.name][1][m.name]
			if !m.exact || len(va) == 0 || len(vb) == 0 {
				continue
			}
			if allEqual(va, vb) {
				same++
				continue
			}
			fmt.Fprintf(out, "%-14s %-36s %12.6g %12.6g  count changed\n", w.name, m.name, median(va), median(vb))
		}
		if same > 0 {
			fmt.Fprintf(out, "%-14s %d per-layer counts repeat exactly\n", w.name, same)
		}
	}
	return regressed, nil
}
