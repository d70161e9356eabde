package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample must yield zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Len() != 8 || s.Mean() != 5 {
		t.Fatalf("len=%d mean=%v", s.Len(), s.Mean())
	}
	if s.Variance() != 4 || s.StdDev() != 2 {
		t.Fatalf("var=%v sd=%v", s.Variance(), s.StdDev())
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Fatal("extremes")
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 0.01 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(95); math.Abs(p-95.05) > 0.1 {
		t.Fatalf("p95 = %v", p)
	}
	if s.Max() != 100 {
		t.Fatal("max")
	}
}

func TestPercentileUnsortedInsertion(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5, 3, 7} {
		s.Add(x)
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 9 {
		t.Fatal("sorting broken")
	}
	s.Add(0) // must re-sort after Add
	if s.Percentile(0) != 0 {
		t.Fatal("stale sort after Add")
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	check := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedVariance(t *testing.T) {
	if NormalizedVariance([]float64{5, 5, 5}) != 0 {
		t.Fatal("uniform vector must have zero normalized variance")
	}
	if NormalizedVariance([]float64{1}) != 0 || NormalizedVariance(nil) != 0 {
		t.Fatal("degenerate inputs")
	}
	lo := NormalizedVariance([]float64{9, 10, 11})
	hi := NormalizedVariance([]float64{1, 10, 19})
	if lo >= hi {
		t.Fatalf("imbalance ordering: %v !< %v", lo, hi)
	}
	// Scale-free: multiplying all values by a constant changes nothing.
	a := NormalizedVariance([]float64{1, 2, 3})
	b := NormalizedVariance([]float64{100, 200, 300})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("not scale-free: %v vs %v", a, b)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22222") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines", len(lines))
	}
}
