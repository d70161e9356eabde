package solver

import (
	"math"

	"ras/internal/floats"
	"ras/internal/reservation"
)

// Eval is the region-wide phase-1 objective of an assignment, broken down by
// the MIP's objective terms (§3.5.3 expressions 1, 3, 4, 6, 7 at MSB
// granularity — rack goals are a phase-2 refinement and not part of the
// phase-1 objective this mirrors).
type Eval struct {
	// Objective is the total: Stability + Spread + Buffer + CapSlack +
	// AffSlack + Wear. It is directly comparable to PhaseStats.Objective of
	// a phase-1 solve over the same input.
	Objective float64
	// Stability is Σ M_s over servers leaving their current reservation
	// (expression 1).
	Stability float64
	// Spread is β·Σ max(0, Σ_MSB − αF·C_r) (expression 3).
	Spread float64
	// Buffer is τ·Σ_r max_MSB Σ (expression 4).
	Buffer float64
	// CapSlack prices unmet capacity: SoftPenalty per RRU short of the
	// embedded-buffer capacity row (expression 6).
	CapSlack float64
	// AffSlack prices DC-affinity violations (expression 7).
	AffSlack float64
	// Wear is the IO-aware placement cost (§5.2); zero unless
	// Config.WearPenalty is set.
	Wear float64
	// Unserviceable is demand no usable server in the region can serve at
	// all. Like a direct solve's PhaseStats.SoftSlack bookkeeping it is NOT
	// part of Objective: the MIP drops such specs before pricing them.
	Unserviceable float64
}

// Evaluate scores a full-region assignment with the phase-1 objective
// functional — the yardstick the pop backend uses so that k recombined
// sub-solutions and one monolithic solve are compared on identical terms.
// Summing sub-problem objectives would overcount the per-reservation τ·max
// buffer terms; Evaluate recomputes everything from the merged Targets.
//
// Only usable servers count (the availability constraint), and every term
// replicates the MIP's construction: servers attribute to the first
// eligible spec sharing their target ID (buffer specs are per-type), specs
// with no eligible usable server anywhere are reported Unserviceable
// instead of priced, and affinity violations are priced only in DCs with
// eligible capacity.
func Evaluate(in Input, cfg Config, targets []reservation.ID) Eval {
	cfg = cfg.withDefaults(in.Region)
	specs := buildSpecs(in, cfg)
	nS := len(specs)
	var ev Eval

	specByID := make(map[reservation.ID][]int, nS)
	for si := range specs {
		specByID[specs[si].res.ID] = append(specByID[specs[si].res.ID], si)
	}
	// firstSpec resolves the spec a server of (type, dc) belongs to under
	// reservation id — the initCount attribution rule of solvePhase.
	firstSpec := func(id reservation.ID, typeIdx, dc int) int {
		for _, si := range specByID[id] {
			if specs[si].res.ValueAt(in.Region.Catalog, typeIdx, dc) > 0 {
				return si
			}
		}
		return -1
	}

	// Eligible usable capacity per spec (region total and per DC) decides
	// which specs are serviceable and which DCs can carry affinity.
	eligTotal := make([]float64, nS)
	eligDC := make([][]float64, nS)
	for si := range specs {
		eligDC[si] = make([]float64, in.Region.NumDCs)
	}
	// Assignment sums per spec.
	sumMSB := make([][]float64, nS)
	for si := range specs {
		sumMSB[si] = make([]float64, in.Region.NumMSBs)
	}
	sumDC := make([][]float64, nS)
	for si := range specs {
		sumDC[si] = make([]float64, in.Region.NumDCs)
	}
	total := make([]float64, nS)

	for i := range in.Region.Servers {
		st := &in.States[i]
		if !st.Usable() {
			continue
		}
		srv := &in.Region.Servers[i]
		for si := range specs {
			if v := specs[si].res.ValueAt(in.Region.Catalog, srv.Type, srv.DC); v > 0 {
				eligTotal[si] += v
				eligDC[si][srv.DC] += v
			}
		}
		// Stability (expression 1): a server counted into its current spec
		// that the assignment moves elsewhere costs M_s.
		if cur := firstSpec(st.Current, srv.Type, srv.DC); cur >= 0 && targets[i] != specs[cur].res.ID {
			ev.Stability += cfg.moveCost(st.MovePreempts())
		}
		si := firstSpec(targets[i], srv.Type, srv.DC)
		if si < 0 {
			continue
		}
		v := specs[si].res.ValueAt(in.Region.Catalog, srv.Type, srv.DC)
		sumMSB[si][srv.MSB] += v
		sumDC[si][srv.DC] += v
		total[si] += v
		if cfg.WearPenalty > 0 && !specs[si].isBuffer &&
			in.Region.Catalog.Type(srv.Type).FlashTB > 0 {
			if b := wearBucket(st.FlashWear); b > 0 {
				ev.Wear += cfg.WearPenalty * float64(b)
			}
		}
	}

	for si := range specs {
		s := &specs[si]
		cr := s.res.RRUs
		if cr <= 0 {
			continue
		}
		if floats.ExactZero(eligTotal[si]) {
			ev.Unserviceable += cr
			continue
		}
		env := 0.0
		for _, v := range sumMSB[si] {
			if v > env {
				env = v
			}
		}
		capLHS := total[si]
		if !s.isBuffer {
			for _, v := range sumMSB[si] {
				ev.Spread += cfg.Beta * math.Max(0, v-s.alphaF*cr)
			}
			ev.Buffer += cfg.Tau * env
			capLHS -= env
		}
		ev.CapSlack += cfg.SoftPenalty * math.Max(0, cr-capLHS)

		if len(s.res.Policy.DCAffinity) > 0 {
			for dc := 0; dc < in.Region.NumDCs; dc++ {
				if floats.ExactZero(eligDC[si][dc]) {
					continue
				}
				a := s.res.Policy.DCAffinity[dc]
				hi := a*cr + s.theta*cr
				lo := a*cr - s.theta*cr
				viol := math.Max(math.Max(0, sumDC[si][dc]-hi), math.Max(0, lo-sumDC[si][dc]))
				ev.AffSlack += cfg.SoftPenalty * viol
			}
		}
	}
	ev.Objective = ev.Stability + ev.Spread + ev.Buffer + ev.CapSlack + ev.AffSlack + ev.Wear
	return ev
}
