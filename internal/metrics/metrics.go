// Package metrics is the small statistics toolkit of the experiment suite:
// Sample (mean, standard deviation, percentiles), NormalizedVariance
// (Figure 14's imbalance measure) and Table (aligned text output). Solve
// statistics do not live here: they ride the results of the solve that
// produced them (lp.Stats, mip.Result, solver.PhaseStats).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is an accumulating collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Mean reports the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// StdDev reports the population standard deviation (0 for fewer than 2
// points).
func (s *Sample) StdDev() float64 {
	if len(s.xs) < 2 {
		return 0
	}
	m := s.Mean()
	t := 0.0
	for _, x := range s.xs {
		d := x - m
		t += d * d
	}
	return math.Sqrt(t / float64(len(s.xs)))
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. Empty samples yield 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Max reports the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// NormalizedVariance reports the variance of xs after dividing every value
// by the mean — the scale-free imbalance measure of Figure 14. A uniform
// vector yields 0.
func NormalizedVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	v := 0.0
	for _, x := range xs {
		d := x/mean - 1
		v += d * d
	}
	return v / float64(len(xs))
}

// Table formats labelled rows as an aligned text table for the benchmark
// harness output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
