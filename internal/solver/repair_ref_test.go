package solver

import (
	"math"
	"slices"
	"sort"

	"ras/internal/reservation"
	"ras/internal/topology"
)

// This file keeps the repair pass as it was before RepairTargets kept its
// views, free pool and steal pool for the whole pass: a test-only reference
// that rebuilds every view per spec, rescans the region for the steal pool
// and collects every candidate of a step in a slice before choosing. It
// differs from that pass only in names (repairTargetsRef, repairSpecRef,
// refView, buildRefView) and in counting RepairStats.Steps and
// RepairStats.Candidates, so TestRepairMatchesReference and
// FuzzRepairMatchesReference can require identical targets and stats.

// specValue is V_{s,r} for a server of the given hardware type and DC under
// spec s, honouring the SingleDC policy: the reference's own copy of
// Reservation.ValueAt.
func specValue(in Input, s *resSpec, typeIdx, dc int) float64 {
	if s.res.Policy.SingleDC >= 0 && dc != s.res.Policy.SingleDC {
		return 0
	}
	return s.res.Value(in.Region.Catalog, typeIdx)
}

// repairTargetsRef is the pop backend's recombination pass: a deterministic
// greedy improvement of a merged multi-partition assignment against the
// phase-1 objective functional (the one Evaluate scores). Sub-problems
// satisfy their own spread and buffer rows, but the merged region can still
// be improved across partition boundaries — typically by trimming the k
// embedded buffers down to one region-wide one (each sub-MIP reserved its
// own max-MSB headroom, expression 6) and by draining MSBs that exceed the
// global αF·C_r spread threshold (expression 3).
//
// Per reservation (ascending ID), up to repairBudgetPerRes steps choose the
// best of four candidate moves — acquire a free eligible server in the
// least-loaded MSB, release a member from the most-loaded MSB, both at once
// (a rebalance), or steal an eligible server from another reservation's
// surplus (contested eligibility: partition-local solves can hand the same
// scarce server class to whichever reservation bid locally) — and apply it
// only if it strictly lowers the exact combined objective of the touched
// reservations (spread + buffer + capacity slack + stability + wear deltas).
// All scans run over index-sorted slices; the pass is a pure function of its
// inputs. Shared-buffer and unusable servers are never touched.
func repairTargetsRef(in Input, cfg Config, targets []reservation.ID) RepairStats {
	cfg = cfg.withDefaults(in.Region)
	var stats RepairStats

	// The repaired rows are the same specs Evaluate scores: user
	// reservations plus the per-type shared-buffer rows. The buffer rows
	// matter because their largest-remainder sizing is not additive — k
	// sub-solves each round their own sub-fleet, so the merged per-type
	// buffer counts miss the region-wide targets by ±1 per type, each miss
	// a full SoftPenalty.
	specs := buildSpecs(in, cfg)
	order := make([]int, 0, len(specs))
	for si := range specs {
		if specs[si].res.RRUs <= 0 {
			continue
		}
		order = append(order, si)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &specs[order[i]], &specs[order[j]]
		if a.isBuffer != b.isBuffer {
			// Reservations first: buffer shortfalls restock from whatever
			// the guaranteed rows just released.
			return !a.isBuffer
		}
		if a.isBuffer {
			return order[i] < order[j] // builder order: ascending hardware type
		}
		return a.res.ID < b.res.ID
	})

	// Sweep until a full pass applies nothing (bounded): a reservation
	// trimming its surplus frees servers an earlier-processed reservation's
	// shortfall can only pick up on the next sweep.
	free := usableFreeServers(in, targets)
	for sweep := 0; sweep < repairMaxSweeps; sweep++ {
		before := stats.Moves()
		for _, si := range order {
			free = repairSpecRef(in, cfg, targets, specs[si], free, &stats)
		}
		if stats.Moves() == before {
			break
		}
	}
	return stats
}

// refView is the mutable per-reservation state the greedy loop updates.
type refView struct {
	spec    resSpec
	cr      float64
	sumMSB  []float64
	total   float64
	members [][]topology.ServerID // per MSB, ascending
}

// localCost is the reservation's share of the phase-1 objective (stability
// and wear are handled incrementally as move deltas). The second return is
// a strictly convex tiebreaker — the sum of squared MSB loads — compared
// lexicographically after the cost: when several MSBs tie at the envelope,
// a single move cannot lower τ·max (zero cost delta), but moves that
// equalize loads strictly shrink the squared sum and walk the plateau until
// the envelope can actually drop.
func (v *refView) localCost(cfg Config) (cost, sq float64) {
	if v.spec.isBuffer {
		// Buffer rows have no spread goals and no envelope subtraction
		// (expression 6 reduces to total ≥ C_r): cost is purely the
		// unmet-capacity penalty, and the plateau tiebreaker is pinned to
		// zero so cost-neutral churn is never accepted.
		return cfg.SoftPenalty * math.Max(0, v.cr-v.total), 0
	}
	env := 0.0
	spread := 0.0
	for _, s := range v.sumMSB {
		if s > env {
			env = s
		}
		spread += cfg.Beta * math.Max(0, s-v.spec.alphaF*v.cr)
		sq += s * s
	}
	return spread + cfg.Tau*env + cfg.SoftPenalty*math.Max(0, v.cr-(v.total-env)), sq
}

// buildRefView assembles a spec's mutable repair state from the current
// targets: per-MSB loads and sorted member lists over usable servers the
// spec values. Every per-type shared-buffer spec shares the SharedBuffer
// target ID; the specValue filter keeps each view on its own type.
func buildRefView(in Input, targets []reservation.ID, spec resSpec) *refView {
	v := &refView{
		spec:   spec,
		cr:     spec.res.RRUs,
		sumMSB: make([]float64, in.Region.NumMSBs),
	}
	v.members = make([][]topology.ServerID, in.Region.NumMSBs)
	for i := range in.Region.Servers {
		if targets[i] != spec.res.ID || !in.States[i].Usable() {
			continue
		}
		srv := &in.Region.Servers[i]
		val := specValue(in, &v.spec, srv.Type, srv.DC)
		if val <= 0 {
			continue
		}
		v.sumMSB[srv.MSB] += val
		v.total += val
		v.members[srv.MSB] = append(v.members[srv.MSB], topology.ServerID(i))
	}
	return v
}

// repairSpecRef runs the greedy loop for one spec (a reservation or one
// per-type shared-buffer row) and returns the updated free pool.
func repairSpecRef(in Input, cfg Config, targets []reservation.ID,
	spec resSpec, free []topology.ServerID, stats *RepairStats) []topology.ServerID {

	v := buildRefView(in, targets, spec)

	// value/moveCost/wearCost of a single server under this reservation.
	value := func(id topology.ServerID) float64 {
		srv := &in.Region.Servers[id]
		return specValue(in, &v.spec, srv.Type, srv.DC)
	}
	moveDelta := func(id topology.ServerID, acquiring bool) float64 {
		st := &in.States[id]
		d := 0.0
		if st.Current == v.spec.res.ID {
			// Releasing a current member starts paying M_s; re-acquiring one
			// stops paying it. Servers current elsewhere already pay their
			// move either way.
			m := cfg.MoveCostIdle
			if st.Containers > 0 && st.LoanedTo == reservation.Unassigned {
				m = cfg.MoveCostInUse
			}
			if acquiring {
				d -= m
			} else {
				d += m
			}
		}
		if cfg.WearPenalty > 0 && !v.spec.isBuffer &&
			in.Region.Catalog.Type(in.Region.Servers[id].Type).FlashTB > 0 {
			if b := wearBucket(st.FlashWear); b > 0 {
				w := cfg.WearPenalty * float64(b)
				if acquiring {
					d += w
				} else {
					d -= w
				}
			}
		}
		return d
	}

	// Free servers grouped per MSB (ascending within each), maintained as
	// moves are applied so every pick scans only one MSB's list.
	freeByMSB := make([][]topology.ServerID, in.Region.NumMSBs)
	for _, id := range free {
		m := in.Region.Servers[id].MSB
		freeByMSB[m] = append(freeByMSB[m], id)
	}

	// pickAcquireFor selects the free server the view's spec values in its
	// least-loaded MSB (ties: lower MSB, then recover-own-current first, then
	// lower ID). Used for this reservation's acquires and for donor backfills
	// in compound steals.
	pickAcquireFor := func(view *refView) (topology.ServerID, int) {
		viewVal := func(id topology.ServerID) float64 {
			srv := &in.Region.Servers[id]
			return specValue(in, &view.spec, srv.Type, srv.DC)
		}
		bestMSB, found := -1, false
		for m := 0; m < in.Region.NumMSBs; m++ {
			has := false
			for _, id := range freeByMSB[m] {
				if viewVal(id) > 0 {
					has = true
					break
				}
			}
			if !has {
				continue
			}
			if !found || view.sumMSB[m] < view.sumMSB[bestMSB] {
				bestMSB, found = m, true
			}
		}
		if !found {
			return -1, -1
		}
		best := topology.ServerID(-1)
		bestOwn := false
		for _, id := range freeByMSB[bestMSB] {
			if viewVal(id) <= 0 {
				continue
			}
			own := in.States[id].Current == view.spec.res.ID
			if best < 0 || (own && !bestOwn) {
				best, bestOwn = id, own
			}
		}
		return best, bestMSB
	}
	pickAcquire := func() (topology.ServerID, int) { return pickAcquireFor(v) }
	// pickRelease selects a member of the most-loaded MSB (ties: lower MSB;
	// within it, foreign-current members first so releases stay free, then
	// lower ID).
	pickRelease := func() (topology.ServerID, int) {
		bestMSB, found := -1, false
		for m := 0; m < in.Region.NumMSBs; m++ {
			if len(v.members[m]) == 0 {
				continue
			}
			if !found || v.sumMSB[m] > v.sumMSB[bestMSB] {
				bestMSB, found = m, true
			}
		}
		if !found {
			return -1, -1
		}
		best := topology.ServerID(-1)
		bestForeign := false
		for _, id := range v.members[bestMSB] {
			foreign := in.States[id].Current != v.spec.res.ID
			if best < 0 || (foreign && !bestForeign) {
				best, bestForeign = id, foreign
			}
		}
		return best, bestMSB
	}

	// Steal bookkeeping: servers assigned to other guaranteed reservations
	// that this spec could use, grouped per MSB (ascending). Donor views are
	// built lazily and kept in sync as steals are applied, so every steal's
	// delta includes the donor's exact cost change. Buffer rows use this
	// too: when a short type has no free stock, the compound variant takes
	// a member from a reservation that can backfill from the free pool with
	// a type the buffer row cannot use.
	donorOf := map[reservation.ID]*reservation.Reservation{}
	stealByMSB := make([][]topology.ServerID, in.Region.NumMSBs)
	for ri := range in.Reservations {
		d := &in.Reservations[ri]
		if d.Elastic || d.RRUs <= 0 || d.ID == spec.res.ID {
			continue
		}
		donorOf[d.ID] = d
	}
	for i := range in.Region.Servers {
		if donorOf[targets[i]] == nil || !in.States[i].Usable() {
			continue
		}
		id := topology.ServerID(i)
		if value(id) <= 0 {
			continue
		}
		stealByMSB[in.Region.Servers[i].MSB] = append(stealByMSB[in.Region.Servers[i].MSB], id)
	}
	donorViews := map[reservation.ID]*refView{}
	donorView := func(id reservation.ID) *refView {
		dv := donorViews[id]
		if dv == nil {
			d := donorOf[id]
			dv = buildRefView(in, targets, newSpec(*d, cfg, false))
			donorViews[id] = dv
		}
		return dv
	}

	applyAcquire := func(id topology.ServerID, msb int) {
		targets[id] = v.spec.res.ID
		val := value(id)
		v.sumMSB[msb] += val
		v.total += val
		v.members[msb] = insertID(v.members[msb], id)
		free = removeID(free, id)
		freeByMSB[msb] = removeID(freeByMSB[msb], id)
	}
	applyRelease := func(id topology.ServerID, msb int) {
		targets[id] = reservation.Unassigned
		val := value(id)
		v.sumMSB[msb] -= val
		v.total -= val
		v.members[msb] = removeID(v.members[msb], id)
		free = insertID(free, id)
		freeByMSB[msb] = insertID(freeByMSB[msb], id)
	}
	applySteal := func(id topology.ServerID, msb int) {
		dv := donorView(targets[id])
		srv := &in.Region.Servers[id]
		if dval := specValue(in, &dv.spec, srv.Type, srv.DC); dval > 0 {
			dv.sumMSB[msb] -= dval
			dv.total -= dval
			dv.members[msb] = removeID(dv.members[msb], id)
		}
		targets[id] = v.spec.res.ID
		val := value(id)
		v.sumMSB[msb] += val
		v.total += val
		v.members[msb] = insertID(v.members[msb], id)
		stealByMSB[msb] = removeID(stealByMSB[msb], id)
	}
	// applyDonorAcquire backfills the donor from the free pool after a
	// compound steal.
	applyDonorAcquire := func(id topology.ServerID, msb int, donorID reservation.ID) {
		dv := donorView(donorID)
		srv := &in.Region.Servers[id]
		bval := specValue(in, &dv.spec, srv.Type, srv.DC)
		dv.sumMSB[msb] += bval
		dv.total += bval
		dv.members[msb] = insertID(dv.members[msb], id)
		targets[id] = donorID
		free = removeID(free, id)
		freeByMSB[msb] = removeID(freeByMSB[msb], id)
		if value(id) > 0 {
			stealByMSB[msb] = insertID(stealByMSB[msb], id)
		}
	}

	for step := 0; step < repairBudgetPerRes; step++ {
		stats.Steps++
		curCost, curSq := v.localCost(cfg)

		type candidate struct {
			kind    int // 0 acquire, 1 release, 2 rebalance, 3 steal, 4 steal+backfill
			acq     topology.ServerID
			acqMSB  int
			rel     topology.ServerID
			relMSB  int
			donor   reservation.ID    // kinds 3–4: reservation the server leaves
			bf      topology.ServerID // kind 4: free server the donor takes instead
			bfMSB   int
			delta   float64
			sqDelta float64
			counted *int
		}
		var cands []candidate
		// try scores one candidate by temporarily applying its load change:
		// delta is the exact local objective change (including the server
		// move/wear costs), sqDelta the plateau tiebreaker change.
		try := func(c candidate, moveCost float64, apply, undo func()) {
			stats.Candidates++
			apply()
			cost, sq := v.localCost(cfg)
			undo()
			c.delta = cost - curCost + moveCost
			c.sqDelta = sq - curSq
			cands = append(cands, c)
		}

		acqID, acqMSB := pickAcquire()
		relID, relMSB := pickRelease()
		if acqID >= 0 {
			av := value(acqID)
			try(candidate{kind: 0, acq: acqID, acqMSB: acqMSB, counted: &stats.Acquired},
				moveDelta(acqID, true),
				func() { v.sumMSB[acqMSB] += av; v.total += av },
				func() { v.sumMSB[acqMSB] -= av; v.total -= av })
		}
		if relID >= 0 {
			rv := value(relID)
			try(candidate{kind: 1, rel: relID, relMSB: relMSB, counted: &stats.Released},
				moveDelta(relID, false),
				func() { v.sumMSB[relMSB] -= rv; v.total -= rv },
				func() { v.sumMSB[relMSB] += rv; v.total += rv })
		}
		if acqID >= 0 && relID >= 0 && acqMSB != relMSB {
			av, rv := value(acqID), value(relID)
			try(candidate{kind: 2, acq: acqID, acqMSB: acqMSB, rel: relID, relMSB: relMSB, counted: &stats.Rebalanced},
				moveDelta(acqID, true)+moveDelta(relID, false),
				func() { v.sumMSB[acqMSB] += av; v.sumMSB[relMSB] -= rv; v.total += av - rv },
				func() { v.sumMSB[acqMSB] -= av; v.sumMSB[relMSB] += rv; v.total -= av - rv })
		}
		// bfPick caches each donor's backfill pick for this step: the free
		// pool and the donor views only change when a move is applied, so
		// one pickAcquireFor per donor covers every MSB's compound variant.
		bfOf := map[reservation.ID]topology.ServerID{}
		bfMSBOf := map[reservation.ID]int{}
		bfPick := func(donorID reservation.ID) (topology.ServerID, int) {
			if id, ok := bfOf[donorID]; ok {
				return id, bfMSBOf[donorID]
			}
			id, msb := pickAcquireFor(donorView(donorID))
			bfOf[donorID], bfMSBOf[donorID] = id, msb
			return id, msb
		}
		// Steal candidates: one per (MSB, donor) pair in the steal pool —
		// the donor's lowest-ID stealable server there — each scored with
		// the exact combined change of both touched reservations plus the
		// server's stability change (wear is per-assigned-server, so a
		// transfer leaves it unchanged). Scanning every pair matters: the
		// only acceptable steal is often one from the donor's most-loaded
		// MSB, where its total and envelope drop together and its
		// embedded-buffer row keeps its slack — a single least-loaded-MSB
		// pick never generates it. Each pair also offers a compound variant
		// where the donor immediately backfills from the free pool: the
		// chain that routes capacity across eligibility classes (the stolen
		// server's class is contested, the backfill's is not). The global
		// potential Σ(cost, Σ S²) still strictly decreases on acceptance,
		// so sweeps cannot cycle through mutual theft.
		var stealDonors []reservation.ID // per-step dedup, reset per MSB
		for stealMSB := 0; stealMSB < in.Region.NumMSBs; stealMSB++ {
			stealDonors = stealDonors[:0]
			for _, stealID := range stealByMSB[stealMSB] {
				donorID := targets[stealID]
				dup := false
				for _, d := range stealDonors {
					if d == donorID {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				stealDonors = append(stealDonors, donorID)
				dv := donorView(donorID)
				srv := &in.Region.Servers[stealID]
				dval := specValue(in, &dv.spec, srv.Type, srv.DC)
				av := value(stealID)
				dCost0, dSq0 := dv.localCost(cfg)
				dv.sumMSB[stealMSB] -= dval
				dv.total -= dval
				dCost1, dSq1 := dv.localCost(cfg)
				bfID, bfMSB := bfPick(donorID)
				dCost2, dSq2, bfMove := 0.0, 0.0, 0.0
				if bfID >= 0 {
					bsrv := &in.Region.Servers[bfID]
					bval := specValue(in, &dv.spec, bsrv.Type, bsrv.DC)
					dv.sumMSB[bfMSB] += bval
					dv.total += bval
					dCost2, dSq2 = dv.localCost(cfg)
					dv.sumMSB[bfMSB] -= bval
					dv.total -= bval
					bst := &in.States[bfID]
					if bst.Current == donorID {
						bm := cfg.MoveCostIdle
						if bst.Containers > 0 && bst.LoanedTo == reservation.Unassigned {
							bm = cfg.MoveCostInUse
						}
						bfMove -= bm // donor recovers its own server: move charge ends
					}
					if cfg.WearPenalty > 0 && in.Region.Catalog.Type(bsrv.Type).FlashTB > 0 {
						if b := wearBucket(bst.FlashWear); b > 0 {
							bfMove += cfg.WearPenalty * float64(b)
						}
					}
				}
				dv.sumMSB[stealMSB] += dval
				dv.total += dval
				st := &in.States[stealID]
				m := cfg.MoveCostIdle
				if st.Containers > 0 && st.LoanedTo == reservation.Unassigned {
					m = cfg.MoveCostInUse
				}
				stab := 0.0
				switch st.Current {
				case v.spec.res.ID:
					stab = -m // coming home: its move charge disappears
				case donorID:
					stab = +m // leaving its home reservation: a new move
				}
				try(candidate{kind: 3, acq: stealID, acqMSB: stealMSB, donor: donorID, counted: &stats.Stolen},
					(dCost1-dCost0)+stab,
					func() { v.sumMSB[stealMSB] += av; v.total += av },
					func() { v.sumMSB[stealMSB] -= av; v.total -= av })
				// Fold the donor's tiebreaker change in as well so plateau
				// comparisons stay globally consistent.
				cands[len(cands)-1].sqDelta += dSq1 - dSq0
				if bfID >= 0 {
					try(candidate{kind: 4, acq: stealID, acqMSB: stealMSB, donor: donorID,
						bf: bfID, bfMSB: bfMSB, counted: &stats.Stolen},
						(dCost2-dCost0)+stab+bfMove,
						func() { v.sumMSB[stealMSB] += av; v.total += av },
						func() { v.sumMSB[stealMSB] -= av; v.total -= av })
					cands[len(cands)-1].sqDelta += dSq2 - dSq0
				}
			}
		}

		// Lexicographic acceptance: a strict cost improvement, or a
		// cost-neutral move that strictly equalizes MSB loads (plateau
		// walking). Both strictly decrease (cost, Σ S²), so the loop cannot
		// cycle.
		best := -1
		for ci := range cands {
			c := &cands[ci]
			improving := c.delta < -1e-9 || (c.delta < 1e-9 && c.sqDelta < -1e-9)
			if !improving {
				continue
			}
			if best < 0 || c.delta < cands[best].delta-1e-9 ||
				(c.delta < cands[best].delta+1e-9 && c.sqDelta < cands[best].sqDelta-1e-9) {
				best = ci
			}
		}
		if best < 0 {
			return free
		}
		c := cands[best]
		switch c.kind {
		case 0:
			applyAcquire(c.acq, c.acqMSB)
		case 1:
			applyRelease(c.rel, c.relMSB)
		case 2:
			applyRelease(c.rel, c.relMSB)
			applyAcquire(c.acq, c.acqMSB)
		case 3:
			applySteal(c.acq, c.acqMSB)
		case 4:
			applySteal(c.acq, c.acqMSB)
			applyDonorAcquire(c.bf, c.bfMSB, c.donor)
			stats.Acquired++ // the backfill half of the compound move
		}
		*c.counted++
	}
	return free
}

// insertID inserts id into an ascending list, keeping it ascending.
func insertID(s []topology.ServerID, id topology.ServerID) []topology.ServerID {
	i, _ := slices.BinarySearch(s, id)
	return slices.Insert(s, i, id)
}

// removeID removes id from an ascending slice (no-op if absent).
func removeID(s []topology.ServerID, id topology.ServerID) []topology.ServerID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// usableFreeServers lists the usable servers an assignment leaves in the
// free pool, ascending — the reference pass's acquisition pool.
func usableFreeServers(in Input, targets []reservation.ID) []topology.ServerID {
	var out []topology.ServerID
	for i := range in.Region.Servers {
		if targets[i] == reservation.Unassigned && in.States[i].Usable() {
			out = append(out, topology.ServerID(i))
		}
	}
	return out
}
