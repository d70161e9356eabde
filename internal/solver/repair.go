package solver

import (
	"math"
	"math/bits"
	"sort"

	"ras/internal/floats"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// RepairStats counts the moves the cross-partition repair pass applied and
// the work it spent finding them.
type RepairStats struct {
	// Acquired counts free servers pulled into a reservation (capacity
	// shortfalls, expression 6).
	Acquired int
	// Released counts surplus members returned to the free pool (embedded
	// buffers overshooting after recombination).
	Released int
	// Rebalanced counts paired release+acquire moves between MSBs (spread
	// and buffer goals, expressions 3–4).
	Rebalanced int
	// Stolen counts servers transferred directly from another reservation's
	// surplus: sub-MIPs split contested eligible capacity blindly, so after
	// the merge one reservation can starve while a same-class one holds
	// more than it needs.
	Stolen int
	// Steps counts greedy steps scored, each spec's closing non-improving
	// step included, and Candidates the candidate moves scored in them: a
	// cheaper pass shows up as fewer candidates or cheaper steps, a smarter
	// one as fewer steps.
	Steps      int
	Candidates int
}

// Moves reports the total repair operations.
func (s RepairStats) Moves() int { return s.Acquired + s.Released + s.Rebalanced + s.Stolen }

// Add accumulates o into s: the local-search backend's passes summed.
func (s *RepairStats) Add(o RepairStats) {
	s.Acquired += o.Acquired
	s.Released += o.Released
	s.Rebalanced += o.Rebalanced
	s.Stolen += o.Stolen
	s.Steps += o.Steps
	s.Candidates += o.Candidates
}

// repairBudgetPerRes bounds the greedy steps spent on one reservation per
// sweep, and repairMaxSweeps bounds the sweeps, so a pathological instance
// cannot turn the cheap pass into a second solve.
const (
	repairBudgetPerRes = 64
	repairMaxSweeps    = 4
)

// RepairTargets is the pop backend's recombination pass: a deterministic
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
// Every pick breaks ties by index; the pass is a pure function of its
// inputs. Shared-buffer and unusable servers are never touched.
func RepairTargets(in Input, cfg Config, targets []reservation.ID) RepairStats {
	cfg = cfg.withDefaults(in.Region)

	// The repaired rows are the same specs Evaluate scores: user
	// reservations plus the per-type shared-buffer rows. The buffer rows
	// matter because their largest-remainder sizing is not additive — k
	// sub-solves each round their own sub-fleet, so the merged per-type
	// buffer counts miss the region-wide targets by ±1 per type, each miss
	// a full SoftPenalty.
	p := newRepairPass(&in, &cfg, buildSpecs(in, cfg), targets, false)
	p.repair()
	return p.stats
}

// RecombineTargets is the pop backend's recombination: SeedTargets, then
// RepairTargets, on one build of the specs and the pass state. The seed
// refills what the repair steps cannot reach — a reservation whose eligible
// servers the partitions handed to others — and the repair then walks the
// seeded assignment to its fixed point. Before repairing, the views are
// re-summed in server order as a new pass sums them, so the targets and the
// repair's stats are those of the two calls made in turn, bit for bit. It
// returns the seed's and the repair's stats.
func RecombineTargets(in Input, cfg Config, targets []reservation.ID) (seed, repair RepairStats) {
	cfg = cfg.withDefaults(in.Region)
	p := newRepairPass(&in, &cfg, buildSpecs(in, cfg), targets, true)
	p.seed()
	seed, p.stats = p.stats, RepairStats{}
	p.load()
	p.repair()
	return seed, p.stats
}

// repair sweeps the specs in repairOrder until a full sweep applies nothing
// (bounded): a reservation trimming its surplus frees servers an
// earlier-processed reservation's shortfall can only pick up on the next
// sweep.
func (p *repairPass) repair() {
	for sweep := 0; sweep < repairMaxSweeps; sweep++ {
		before := p.stats.Moves()
		for _, si := range p.order {
			p.repairSpec(si)
		}
		if p.stats.Moves() == before {
			break
		}
	}
}

// repairOrder lists the specs with demand in the order the repair pass and
// the seed visit them: reservations by ascending ID, then the shared-buffer
// rows by ascending hardware type, so buffer shortfalls restock from
// whatever the guaranteed rows just released.
func repairOrder(specs []resSpec) []int {
	order := make([]int, 0, len(specs))
	for si := range specs {
		if specs[si].res.RRUs > 0 {
			order = append(order, si)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &specs[order[i]], &specs[order[j]]
		if a.isBuffer != b.isBuffer {
			return !a.isBuffer
		}
		return !a.isBuffer && a.res.ID < b.res.ID // buffer rows keep builder order
	})
	return order
}

// SeedTargets is the local-search backend's seed, run once before
// RepairTargets takes the assignment to a fixed point. It reaches what
// single repair steps cannot: the plateau where a short reservation's
// capacity row ignores its first servers (total and envelope rise
// together), and surplus members outside the most-loaded MSB or behind an
// in-use one there. A server whose target is no reservation valuing it — a
// shared-buffer member, a deleted reservation, an ineligible binding —
// starts free. Then, with every spec in RepairTargets' order, the seed
// fills, trims and fills again: a fill acquires free servers one at a time
// into a short spec's least-loaded MSB (pickAcquire, own current members
// first) until its capacity row (expression 6) holds or no eligible free
// server is left; a trim releases members while that lowers the spec's
// share of the objective (trim). The second fill restocks from what the
// trim freed, the buffer rows last. targets is updated in place; the
// returned stats count the seed's acquisitions and releases.
func SeedTargets(in Input, cfg Config, targets []reservation.ID) RepairStats {
	cfg = cfg.withDefaults(in.Region)
	p := newRepairPass(&in, &cfg, buildSpecs(in, cfg), targets, true)
	p.seed()
	return p.stats
}

// seed fills, trims and fills again (SeedTargets).
func (p *repairPass) seed() {
	fill := func() {
		for _, s := range p.order {
			for p.views[s].short() {
				id, _ := p.pickAcquire(s)
				if id < 0 {
					break
				}
				p.acquire(s, id)
				p.stats.Acquired++
			}
		}
	}
	fill()
	for _, s := range p.order {
		p.trim(s)
	}
	fill()
}

// trim releases spec s's members one at a time while a release lowers the
// spec's cost, stability and wear included: at every MSB it scores the
// member whose release costs the least stability and wear (ties: lower ID)
// and takes the best of those.
func (p *repairPass) trim(s int) {
	v, cfg := &p.views[s], p.cfg
	for {
		cur, _ := v.localCost(cfg)
		best, bestID := -1e-9, topology.ServerID(-1)
		for m := range v.sumMSB {
			id, move := p.pickTrim(s, m)
			if id < 0 {
				continue
			}
			cost, _ := v.costWith(cfg, m, -p.value(s, id), -1, 0)
			if d := cost - cur + move; d < best {
				best, bestID = d, id
			}
		}
		if bestID < 0 {
			return
		}
		p.release(s, bestID)
		p.stats.Released++
	}
}

// pickTrim selects spec s's member in MSB m whose release changes stability
// and wear the least (ties: lower ID), and that change; -1 if it has none.
func (p *repairPass) pickTrim(s, m int) (topology.ServerID, float64) {
	mem := p.setOf(p.mem, s)
	id, move := topology.ServerID(-1), 0.0
	for c := p.msbCls[m]; c < p.msbCls[m+1]; c++ {
		for w := p.clsWord[c]; w < p.clsWord[c+1]; w++ {
			for x := mem[w]; x != 0; x &= x - 1 {
				sid := p.bitSrv[64*w+bits.TrailingZeros64(x)]
				if d := p.moveDelta(s, sid, false); id < 0 || d < move-1e-12 || (d < move+1e-12 && sid < id) {
					id, move = sid, d
				}
			}
		}
	}
	return id, move
}

// short reports that the view's capacity row (expression 6) is unmet: total
// minus the largest MSB for a reservation, the total for a buffer row.
func (v *resView) short() bool {
	lhs := v.total
	if !v.spec.isBuffer {
		for _, s := range v.sumMSB {
			lhs = min(lhs, v.total-s)
		}
	}
	return v.cr-lhs > 1e-9
}

// resView is a spec's live load: what localCost prices. Its stamps number
// the changes a repair pass made to it: ver to the spec's members and
// loads, freeVer to the free servers of classes the spec values.
type resView struct {
	spec         *resSpec
	cr           float64
	sumMSB       []float64
	total        float64
	ver, freeVer uint64
}

// localCost is the reservation's share of the phase-1 objective (stability
// and wear are handled incrementally as move deltas). The second return is
// a strictly convex tiebreaker — the sum of squared MSB loads — compared
// lexicographically after the cost: when several MSBs tie at the envelope,
// a single move cannot lower τ·max (zero cost delta), but moves that
// equalize loads strictly shrink the squared sum and walk the plateau until
// the envelope can actually drop.
func (v *resView) localCost(cfg *Config) (cost, sq float64) {
	if v.spec.isBuffer {
		// Buffer rows have no spread goals and no envelope subtraction
		// (expression 6 reduces to total ≥ C_r): cost is purely the
		// unmet-capacity penalty, and the plateau tiebreaker is pinned to
		// zero so cost-neutral churn is never accepted.
		return cfg.SoftPenalty * pos(v.cr-v.total), 0
	}
	env, spread, hinge := 0.0, 0.0, v.spec.alphaF*v.cr
	for _, s := range v.sumMSB {
		if s > env {
			env = s
		}
		spread += cfg.Beta * pos(s-hinge)
		sq += s * s
	}
	return spread + cfg.Tau*env + cfg.SoftPenalty*pos(v.cr-(v.total-env)), sq
}

// pos is max(0, x) without math.Max's NaN and signed-zero handling, which
// costs the pass's inner loop a third of its time.
func pos(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// costWith is localCost with x1 added to MSB m1's load, x2 to MSB m2's (m2
// < 0: none) and both to the total, leaving the view as it was.
func (v *resView) costWith(cfg *Config, m1 int, x1 float64, m2 int, x2 float64) (cost, sq float64) {
	s1, s2, t := v.sumMSB[m1], 0.0, v.total
	v.sumMSB[m1] += x1
	if m2 >= 0 {
		s2 = v.sumMSB[m2]
		v.sumMSB[m2] += x2
	}
	v.total += x1 + x2
	cost, sq = v.localCost(cfg)
	v.sumMSB[m1], v.total = s1, t
	if m2 >= 0 {
		v.sumMSB[m2] = s2
	}
	return cost, sq
}

// repairPass is what one RepairTargets, SeedTargets or RecombineTargets call
// builds once and keeps in step with every applied move. Usable servers are
// grouped into classes — one (MSB, hardware type, DC) triple each, so a spec
// values a class's servers alike — and a class owns a run of words in every
// bit set, bit b standing for its b-th lowest server ID. Per spec, mem holds
// the servers targeted to it (valued or not: a donor's server is stealable
// by whatever the thief values) and home the servers it currently holds;
// free is the free pool. Every pick — a view's lowest own free server, its
// lowest foreign member, a donor's lowest stealable server in an MSB — is
// the first set bit over one MSB's classes, and a step allocates nothing.
type repairPass struct {
	in      *Input
	cfg     *Config
	targets []reservation.ID
	specs   []resSpec
	order   []int     // repairOrder(specs)
	views   []resView // one per spec, live for the whole pass
	donors  []int     // specs a steal can take from: guaranteed reservations
	stats   RepairStats

	// userSpec and bufSpec resolve a target or current reservation to the
	// spec whose view holds the server (owner).
	userSpec map[reservation.ID]int
	bufSpec  []int // per class: the shared-buffer row valuing it, or -1

	nC      int                 // classes
	words   int                 // words per bit set
	msbCls  []int               // MSB m's classes are msbCls[m] ≤ c < msbCls[m+1]
	clsWord []int               // class c's words are clsWord[c] ≤ w < clsWord[c+1]
	bitSrv  []topology.ServerID // the server behind each bit
	srvBit  []int32             // each server's bit (-1: unusable)
	srvCls  []int32             // each server's class
	val     []float64           // val[s*nC+c]: V_{s,r} of class c under spec s
	free    []uint64
	mem     []uint64 // words per spec
	home    []uint64 // words per spec

	// A step changes the stepping spec, at most one donor and the free
	// pool, so what the steal candidates score on the donor side is kept
	// across steps and rescored only when a stamp it was computed under
	// (resView.ver, resView.freeVer) has moved: per (MSB, donor) the pick
	// and the donor's cost without it and with its backfill, per donor its
	// baseline cost and backfill pick. The stepping spec's cost with one
	// more server of a class is computed once per step.
	step    int          // numbers the greedy steps of the pass
	pairAt  []pairCache  // pairAt[m*len(donors)+k]: donors[k] in MSB m
	donorAt []donorCache // per spec
	thiefAt []stepCost   // per class
	pairs   []stealPair
}

// stepCost is a localCost result and the step it belongs to.
type stepCost struct {
	step     int
	cost, sq float64
}

// pairCache is a donor's steal pick in one MSB for one thief (thief+1, so
// that the zero entry is never valid): the donor's lowest member there that
// the thief values, valid while the donor's ver is the one it was picked
// at, the donor's cost without it (cost, sq), and its cost without it and
// with a backfill of value bfVal in MSB bfMSB (bfMSB -1: none scored yet).
type pairCache struct {
	thief, ver   uint64
	id           topology.ServerID
	val          float64 // the pick's value to the donor
	cost, sq     float64
	bfMSB        int
	bfVal        float64
	bfCost, bfSq float64
}

// donorCache is a donor's baseline cost, valid while its ver is ver, and
// its backfill pick for one thief (bfThief, thief+1), valid while its ver
// and freeVer are bfVer and bfFree. The pick is made with the load of the
// first MSB scored for the donor lowered — an MSB the thief and the
// donor's members decide, which the stamps pin.
type donorCache struct {
	ver, bfThief, bfVer, bfFree uint64
	cost, sq                    float64
	bf                          topology.ServerID
	bfMSB                       int
	bfVal, bfMove               float64
}

// stealPair is one steal candidate: a donor's lowest server in an MSB.
type stealPair struct {
	donor int
	pc    *pairCache
}

// newRepairPass builds the pass over targets. For the seed (unseat), it
// first frees every server whose target is no reservation valuing it.
func newRepairPass(in *Input, cfg *Config, specs []resSpec, targets []reservation.ID, unseat bool) *repairPass {
	reg := in.Region
	nT, nD, nM, nS := reg.Catalog.Len(), reg.NumDCs, reg.NumMSBs, len(specs)
	p := &repairPass{in: in, cfg: cfg, targets: targets, specs: specs}

	// Classes in (MSB, type, DC) order, so each MSB's classes are adjacent.
	key := func(srv *topology.Server) int { return (srv.MSB*nT+srv.Type)*nD + srv.DC }
	keyCls := make([]int32, nM*nT*nD) // class size, then class index
	for i := range reg.Servers {
		if in.States[i].Usable() {
			keyCls[key(&reg.Servers[i])]++
		}
	}
	p.msbCls = make([]int, nM+1)
	for k, n := range keyCls {
		if n > 0 {
			p.nC++
			p.words += int(n+63) / 64
			p.msbCls[k/(nT*nD)+1]++
		}
	}
	for m := 0; m < nM; m++ {
		p.msbCls[m+1] += p.msbCls[m]
	}
	p.clsWord = make([]int, p.nC+1)
	p.val = make([]float64, nS*p.nC)
	c := 0
	for k, n := range keyCls {
		if n == 0 {
			continue
		}
		p.clsWord[c+1] = p.clsWord[c] + int(n+63)/64
		for s := range specs {
			p.val[s*p.nC+c] = specs[s].res.ValueAt(reg.Catalog, k/nD%nT, k%nD)
		}
		keyCls[k] = int32(c)
		c++
	}

	// Bits in ascending server ID within each class.
	p.bitSrv = make([]topology.ServerID, 64*p.words)
	p.srvBit = make([]int32, len(reg.Servers))
	p.srvCls = make([]int32, len(reg.Servers))
	next := make([]int, p.nC)
	for i := range reg.Servers {
		p.srvBit[i] = -1
		if !in.States[i].Usable() {
			continue
		}
		c := keyCls[key(&reg.Servers[i])]
		b := 64*p.clsWord[c] + next[c]
		next[c]++
		p.srvBit[i], p.srvCls[i], p.bitSrv[b] = int32(b), c, topology.ServerID(i)
	}

	p.userSpec = make(map[reservation.ID]int, nS)
	p.donors = make([]int, 0, nS)
	p.bufSpec = make([]int, p.nC)
	for c := range p.bufSpec {
		p.bufSpec[c] = -1
	}
	for s := range specs {
		if !specs[s].isBuffer {
			p.userSpec[specs[s].res.ID] = s
			if specs[s].res.RRUs > 0 {
				p.donors = append(p.donors, s)
			}
			continue
		}
		for c := range p.bufSpec {
			if p.bufSpec[c] < 0 && p.val[s*p.nC+c] > 0 {
				p.bufSpec[c] = s
			}
		}
	}

	if unseat {
		for i := range targets {
			srv := &reg.Servers[i]
			if s, ok := p.userSpec[targets[i]]; !ok || specs[s].res.ValueAt(reg.Catalog, srv.Type, srv.DC) <= 0 {
				targets[i] = reservation.Unassigned
			}
		}
	}

	sets := make([]uint64, (1+2*nS)*p.words)
	p.free, p.mem, p.home = sets[:p.words], sets[p.words:(1+nS)*p.words], sets[(1+nS)*p.words:]
	for i := range reg.Servers {
		b, c := p.srvBit[i], p.srvCls[i]
		if b < 0 {
			continue
		}
		if targets[i] == reservation.Unassigned {
			setBit(p.free, b, true)
		} else if s := p.owner(targets[i], c); s >= 0 {
			setBit(p.setOf(p.mem, s), b, true)
		}
		if s := p.owner(in.States[i].Current, c); s >= 0 {
			setBit(p.setOf(p.home, s), b, true)
		}
	}
	loads := make([]float64, nS*nM)
	p.views = make([]resView, nS)
	for s := range specs {
		p.views[s] = resView{spec: &specs[s], cr: specs[s].res.RRUs, sumMSB: loads[s*nM : (s+1)*nM], freeVer: 1}
	}
	p.load()
	p.order = repairOrder(specs)

	p.pairAt = make([]pairCache, nM*len(p.donors))
	p.donorAt = make([]donorCache, nS)
	p.thiefAt = make([]stepCost, p.nC)
	p.pairs = make([]stealPair, 0, len(p.donors))
	return p
}

// owner is the spec whose view holds a server of class c targeted to id: a
// user reservation's own spec or the shared-buffer row of the class; -1 if
// none.
func (p *repairPass) owner(id reservation.ID, c int32) int {
	if id == reservation.SharedBuffer {
		return p.bufSpec[c]
	}
	if s, ok := p.userSpec[id]; ok {
		return s
	}
	return -1
}

// load sums every view from its spec's targeted servers, in ascending
// server ID as the pass's build does, and stamps the change.
func (p *repairPass) load() {
	for s := range p.views {
		v := &p.views[s]
		clear(v.sumMSB)
		v.total = 0
		v.ver++
	}
	for i, c := range p.srvCls {
		if p.srvBit[i] < 0 || p.targets[i] == reservation.Unassigned {
			continue
		}
		if s := p.owner(p.targets[i], c); s >= 0 {
			p.views[s].add(p.in.Region.Servers[i].MSB, p.val[s*p.nC+int(c)])
		}
	}
}

func setBit(set []uint64, b int32, on bool) {
	if on {
		set[b/64] |= 1 << (b % 64)
	} else {
		set[b/64] &^= 1 << (b % 64)
	}
}

// setOf is spec s's words of a per-spec bit set.
func (p *repairPass) setOf(sets []uint64, s int) []uint64 {
	return sets[s*p.words : (s+1)*p.words]
}

// add puts x on the view's MSB m load and on its total.
func (v *resView) add(m int, x float64) {
	v.sumMSB[m] += x
	v.total += x
	v.ver++
}

// lower takes x off the view's MSB m load and its total for a trial, and
// returns what restore puts back.
func (v *resView) lower(m int, x float64) (sm, st float64) {
	sm, st = v.sumMSB[m], v.total
	v.sumMSB[m] -= x
	v.total -= x
	return sm, st
}

// restore ends a lower trial.
func (v *resView) restore(m int, sm, st float64) { v.sumMSB[m], v.total = sm, st }

func (p *repairPass) value(s int, id topology.ServerID) float64 {
	return p.val[s*p.nC+int(p.srvCls[id])]
}

// lowest is the lowest server in MSB m, among the classes spec by values,
// whose bit is set in set — and, with a mask, set (keep) or clear (!keep)
// in mask. -1 if there is none.
func (p *repairPass) lowest(m, by int, set, mask []uint64, keep bool) topology.ServerID {
	best := topology.ServerID(-1)
	for c := p.msbCls[m]; c < p.msbCls[m+1]; c++ {
		if p.val[by*p.nC+c] <= 0 {
			continue
		}
		for w := p.clsWord[c]; w < p.clsWord[c+1]; w++ {
			x := set[w]
			if mask != nil && keep {
				x &= mask[w]
			} else if mask != nil {
				x &^= mask[w]
			}
			if x != 0 {
				if id := p.bitSrv[64*w+bits.TrailingZeros64(x)]; best < 0 || id < best {
					best = id
				}
				break
			}
		}
	}
	return best
}

// lessLoad reports whether MSB load a is below b by more than 1e-9,
// relative to the larger load and never less than absolute, so that loads
// summed in different orders tie (to the lower MSB) — an emptied MSB's load
// of 2e-16 included.
func lessLoad(a, b float64) bool {
	return a < b-1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// pickAcquire selects the free server spec s values in its least-loaded
// MSB (ties, within lessLoad: lower MSB, then recover-own-current first,
// then lower ID).
// Used for the spec's own acquires and for donor backfills in compound
// steals.
func (p *repairPass) pickAcquire(s int) (topology.ServerID, int) {
	load := p.views[s].sumMSB
	best := -1
	for m := range load {
		if (best < 0 || lessLoad(load[m], load[best])) && p.lowest(m, s, p.free, nil, false) >= 0 {
			best = m
		}
	}
	if best < 0 {
		return -1, -1
	}
	if id := p.lowest(best, s, p.free, p.setOf(p.home, s), true); id >= 0 {
		return id, best
	}
	return p.lowest(best, s, p.free, nil, false), best
}

// pickRelease selects a member of spec s's most-loaded MSB (ties, within
// lessLoad: lower MSB; within it, foreign-current members first so
// releases stay free, then lower ID).
func (p *repairPass) pickRelease(s int) (topology.ServerID, int) {
	load, mem := p.views[s].sumMSB, p.setOf(p.mem, s)
	best := -1
	for m := range load {
		if (best < 0 || lessLoad(load[best], load[m])) && p.lowest(m, s, mem, nil, false) >= 0 {
			best = m
		}
	}
	if best < 0 {
		return -1, -1
	}
	if id := p.lowest(best, s, mem, p.setOf(p.home, s), false); id >= 0 {
		return id, best
	}
	return p.lowest(best, s, mem, nil, false), best
}

// moveDelta is the stability and wear change of spec s acquiring (or
// releasing) the server.
func (p *repairPass) moveDelta(s int, id topology.ServerID, acquiring bool) float64 {
	st := &p.in.States[id]
	d := 0.0
	if st.Current == p.specs[s].res.ID {
		// Releasing a current member starts paying M_s; re-acquiring one
		// stops paying it. Servers current elsewhere already pay their
		// move either way.
		if acquiring {
			d -= p.cfg.moveCost(st.MovePreempts())
		} else {
			d += p.cfg.moveCost(st.MovePreempts())
		}
	}
	if p.cfg.WearPenalty > 0 && !p.specs[s].isBuffer &&
		p.in.Region.Catalog.Type(p.in.Region.Servers[id].Type).FlashTB > 0 {
		if b := wearBucket(st.FlashWear); b > 0 {
			w := p.cfg.WearPenalty * float64(b)
			if acquiring {
				d += w
			} else {
				d -= w
			}
		}
	}
	return d
}

// Candidate kinds.
const (
	moveAcquire = iota
	moveRelease
	moveRebalance
	moveSteal
	moveStealBackfill // a steal whose donor refills from the free pool
)

type repairMove struct {
	kind           int
	acq, rel, bf   topology.ServerID // a steal's acq is the stolen server
	donor          int               // a steal's donor spec, which a backfill refills with bf
	delta, sqDelta float64
}

// offer counts a scored candidate and keeps it if it beats best.
// Lexicographic acceptance: a strict cost improvement, or a cost-neutral
// move that strictly equalizes MSB loads (plateau walking). Both strictly
// decrease (cost, Σ S²), so the loop cannot cycle. Earlier candidates win
// ties.
func (p *repairPass) offer(best *repairMove, c repairMove) {
	p.stats.Candidates++
	if !(c.delta < -1e-9 || (c.delta < 1e-9 && c.sqDelta < -1e-9)) {
		return
	}
	if best.kind < 0 || c.delta < best.delta-1e-9 ||
		(c.delta < best.delta+1e-9 && c.sqDelta < best.sqDelta-1e-9) {
		*best = c
	}
}

// repairSpec runs the greedy loop for one spec (a reservation or one
// per-type shared-buffer row).
func (p *repairPass) repairSpec(s int) {
	v, cfg := &p.views[s], p.cfg
	for step := 0; step < repairBudgetPerRes; step++ {
		p.step++
		p.stats.Steps++
		curCost, curSq := v.localCost(cfg)
		best := repairMove{kind: -1}

		acqID, acqMSB := p.pickAcquire(s)
		relID, relMSB := p.pickRelease(s)
		var av, rv float64
		if acqID >= 0 {
			av = p.value(s, acqID)
			cost, sq := v.costWith(cfg, acqMSB, av, -1, 0)
			p.offer(&best, repairMove{kind: moveAcquire, acq: acqID,
				delta: cost - curCost + p.moveDelta(s, acqID, true), sqDelta: sq - curSq})
		}
		if relID >= 0 {
			rv = p.value(s, relID)
			cost, sq := v.costWith(cfg, relMSB, -rv, -1, 0)
			p.offer(&best, repairMove{kind: moveRelease, rel: relID,
				delta: cost - curCost + p.moveDelta(s, relID, false), sqDelta: sq - curSq})
		}
		if acqID >= 0 && relID >= 0 && acqMSB != relMSB {
			cost, sq := v.costWith(cfg, acqMSB, av, relMSB, -rv)
			p.offer(&best, repairMove{kind: moveRebalance, acq: acqID, rel: relID,
				delta: cost - curCost + (p.moveDelta(s, acqID, true) + p.moveDelta(s, relID, false)), sqDelta: sq - curSq})
		}
		// Steal candidates: one per (MSB, donor) pair — the donor's lowest
		// server there that this spec values, donors in order of that ID.
		// Scanning every pair matters: the only acceptable steal is often
		// one from the donor's most-loaded MSB, where its total and envelope
		// drop together and its embedded-buffer row keeps its slack — a
		// single least-loaded-MSB pick never generates it. Buffer rows steal
		// too: when a short type has no free stock, the compound variant
		// takes a member from a reservation that can backfill from the free
		// pool with a type the buffer row cannot use.
		for m := range v.sumMSB {
			pairs := p.pairs[:0]
			for k, d := range p.donors {
				if p.specs[d].res.ID == v.spec.res.ID {
					continue
				}
				pc := p.pair(s, m, k)
				if pc.id < 0 {
					continue
				}
				i := len(pairs)
				pairs = append(pairs, stealPair{})
				for ; i > 0 && pairs[i-1].pc.id > pc.id; i-- {
					pairs[i] = pairs[i-1]
				}
				pairs[i] = stealPair{d, pc}
			}
			for _, sp := range pairs {
				p.offerSteal(s, m, sp, curCost, curSq, &best)
			}
		}

		switch best.kind {
		case -1:
			return
		case moveAcquire:
			p.acquire(s, best.acq)
			p.stats.Acquired++
		case moveRelease:
			p.release(s, best.rel)
			p.stats.Released++
		case moveRebalance:
			p.release(s, best.rel)
			p.acquire(s, best.acq)
			p.stats.Rebalanced++
		default:
			p.steal(s, best.donor, best.acq)
			p.stats.Stolen++
			if best.kind == moveStealBackfill {
				p.acquire(best.donor, best.bf)
				p.stats.Acquired++ // the backfill half of the compound move
			}
		}
	}
}

// pair is donors[k]'s steal pick in MSB m for thief s, rescored if the
// donor's members changed since it was made.
func (p *repairPass) pair(s, m, k int) *pairCache {
	d := p.donors[k]
	dv, pc := &p.views[d], &p.pairAt[m*len(p.donors)+k]
	if pc.thief == uint64(s)+1 && pc.ver == dv.ver {
		return pc
	}
	pc.thief, pc.ver, pc.bfMSB = uint64(s)+1, dv.ver, -1
	pc.id = p.lowest(m, s, p.setOf(p.mem, d), nil, false)
	if pc.id >= 0 {
		pc.val = p.value(d, pc.id)
		pc.cost, pc.sq = dv.costWith(p.cfg, m, -pc.val, -1, 0)
	}
	return pc
}

// offerSteal scores stealing sp.pc.id from donor sp.donor in MSB m, plain and
// with the donor's backfill, each with the exact combined change of both
// touched reservations plus the server's stability change (wear is
// per-assigned-server, so a transfer leaves it unchanged). The compound
// variant is the chain that routes capacity across eligibility classes
// (the stolen server's class is contested, the backfill's is not). The
// donor's tiebreaker change is folded in too, so the global potential
// Σ(cost, Σ S²) still strictly decreases on acceptance and sweeps cannot
// cycle through mutual theft. The donor side comes from the caches
// (pairCache, donorCache), rescored where a stamp moved.
func (p *repairPass) offerSteal(s, m int, sp stealPair, curCost, curSq float64, best *repairMove) {
	v, d, pc, cfg := &p.views[s], sp.donor, sp.pc, p.cfg
	dv, dc := &p.views[d], &p.donorAt[d]
	if dc.ver != dv.ver {
		dc.ver = dv.ver
		dc.cost, dc.sq = dv.localCost(cfg)
	}
	if thief := uint64(s) + 1; dc.bfThief != thief || dc.bfVer != dv.ver || dc.bfFree != dv.freeVer {
		// Unchanged within a step, so this is the step's first candidate
		// for the donor: picked with this MSB's load lowered.
		dc.bfThief, dc.bfVer, dc.bfFree = thief, dv.ver, dv.freeVer
		sm, st := dv.lower(m, pc.val)
		dc.bf, dc.bfMSB = p.pickAcquire(d)
		dv.restore(m, sm, st)
		if dc.bf >= 0 {
			dc.bfVal, dc.bfMove = p.value(d, dc.bf), p.moveDelta(d, dc.bf, true)
		}
	}
	if dc.bf >= 0 && (pc.bfMSB != dc.bfMSB || !floats.ExactEqual(pc.bfVal, dc.bfVal)) {
		pc.bfMSB, pc.bfVal = dc.bfMSB, dc.bfVal
		sm, st := dv.lower(m, pc.val)
		pc.bfCost, pc.bfSq = dv.costWith(cfg, dc.bfMSB, dc.bfVal, -1, 0)
		dv.restore(m, sm, st)
	}

	stab := 0.0
	switch cur := &p.in.States[pc.id]; cur.Current {
	case v.spec.res.ID:
		stab = -p.cfg.moveCost(cur.MovePreempts()) // coming home: its move charge disappears
	case p.specs[d].res.ID:
		stab = +p.cfg.moveCost(cur.MovePreempts()) // leaving its home reservation: a new move
	}
	tc := &p.thiefAt[p.srvCls[pc.id]]
	if tc.step != p.step {
		tc.step = p.step
		tc.cost, tc.sq = v.costWith(cfg, m, p.value(s, pc.id), -1, 0)
	}
	cost, sq := tc.cost, tc.sq
	p.offer(best, repairMove{kind: moveSteal, acq: pc.id, donor: d,
		delta: cost - curCost + ((pc.cost - dc.cost) + stab), sqDelta: sq - curSq + (pc.sq - dc.sq)})
	if dc.bf >= 0 {
		p.offer(best, repairMove{kind: moveStealBackfill, acq: pc.id, donor: d, bf: dc.bf,
			delta: cost - curCost + ((pc.bfCost - dc.cost) + stab + dc.bfMove), sqDelta: sq - curSq + (pc.bfSq - dc.sq)})
	}
}

// acquire moves a free server into spec s.
func (p *repairPass) acquire(s int, id topology.ServerID) {
	p.targets[id] = p.specs[s].res.ID
	p.setFree(id, false)
	setBit(p.setOf(p.mem, s), p.srvBit[id], true)
	p.views[s].add(p.in.Region.Servers[id].MSB, p.value(s, id))
}

// release returns a member of spec s to the free pool.
func (p *repairPass) release(s int, id topology.ServerID) {
	p.targets[id] = reservation.Unassigned
	setBit(p.setOf(p.mem, s), p.srvBit[id], false)
	p.setFree(id, true)
	p.views[s].add(p.in.Region.Servers[id].MSB, -p.value(s, id))
}

// steal moves a server from donor spec d to spec s.
func (p *repairPass) steal(s, d int, id topology.ServerID) {
	m := p.in.Region.Servers[id].MSB
	setBit(p.setOf(p.mem, d), p.srvBit[id], false)
	p.views[d].add(m, -p.value(d, id))
	p.targets[id] = p.specs[s].res.ID
	setBit(p.setOf(p.mem, s), p.srvBit[id], true)
	p.views[s].add(m, p.value(s, id))
}

// setFree puts the server in or out of the free pool and stamps the change
// on every spec that values its class.
func (p *repairPass) setFree(id topology.ServerID, on bool) {
	setBit(p.free, p.srvBit[id], on)
	c := int(p.srvCls[id])
	for s := range p.views {
		if p.val[s*p.nC+c] > 0 {
			p.views[s].freeVer++
		}
	}
}
