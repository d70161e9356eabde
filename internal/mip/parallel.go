package mip

// Parallel branch-and-bound driver (Options.Workers > 1): a shared open
// list feeds a pool of worker goroutines, each with its own lp.Problem
// clone and LP workspace — a node carries the basis its LP starts from, so
// it costs the same whichever worker pops it — while the root primal
// heuristics race on separate clones to seed the shared incumbent. The incumbent publication
// protocol and bound-soundness argument are documented in DESIGN.md
// ("Parallel solving").

import (
	"math"
	"sync"
)

// nodePool is the shared open-node list of the parallel search. Selection
// follows the serial policy (LIFO dives with every-16th best-bound pick,
// keyed on the pop sequence number). The pool tracks the bound of every
// node a worker currently holds so the global bound — min over open nodes
// AND in-flight nodes — never overstates what has been proven: a popped
// node's subtree is unexplored until the worker pushes its children.
type nodePool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	open     []node
	inflight map[int]float64 // worker id → bound of the node being expanded
	popped   int             // pop sequence number (drives best-bound picks)
	closed   bool            // stop: node/time limit reached or cancelled
}

func newNodePool(root node) *nodePool {
	p := &nodePool{open: []node{root}, inflight: map[int]float64{}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// pop hands worker w the next node, blocking while the list is empty but
// other workers still hold nodes whose children may arrive. It returns
// false when the search is over: limits hit, cancelled, or the tree is
// exhausted (no open nodes and no in-flight workers).
func (p *nodePool) pop(w int, e *engine) (node, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if !p.closed && (int(e.nodes.Load()) >= e.opt.MaxNodes || e.expired()) {
			p.closed = true
			p.cond.Broadcast()
		}
		if !p.closed && e.opt.StallNodes > 0 {
			bb := p.bestBoundLocked(e)
			e.noteBound(bb)
			if e.stalled(bb) {
				p.closed = true
				p.cond.Broadcast()
			}
		}
		if p.closed {
			return node{}, false
		}
		if len(p.open) > 0 {
			pick := len(p.open) - 1
			if p.popped%16 == 15 {
				for i := range p.open {
					if p.open[i].bound < p.open[pick].bound {
						pick = i
					}
				}
			}
			p.popped++
			nd := p.open[pick]
			p.open = append(p.open[:pick], p.open[pick+1:]...)
			p.inflight[w] = nd.bound
			return nd, true
		}
		if len(p.inflight) == 0 {
			p.cond.Broadcast() // drained: wake every waiter so all exit
			return node{}, false
		}
		p.cond.Wait()
	}
}

// finish returns worker w's results: its children join the open list (even
// after close, so the final bound accounts for their subtrees) and the
// worker's in-flight claim is released.
func (p *nodePool) finish(w int, children []node) {
	p.mu.Lock()
	p.open = append(p.open, children...)
	delete(p.inflight, w)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// bestBound reports the minimum bound over open and in-flight nodes — the
// best objective any unexplored subtree could still reach. With nothing
// outstanding it returns the incumbent objective, matching the serial
// driver's convention.
func (p *nodePool) bestBound(e *engine) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bestBoundLocked(e)
}

// bestBoundLocked is bestBound for callers already holding p.mu.
func (p *nodePool) bestBoundLocked(e *engine) float64 {
	b := math.Inf(1)
	for i := range p.open {
		if p.open[i].bound < b {
			b = p.open[i].bound
		}
	}
	for _, v := range p.inflight {
		if v < b {
			b = v
		}
	}
	if math.IsInf(b, 1) {
		return e.bestObj()
	}
	return b
}

// remaining reports the number of unexplored open nodes.
func (p *nodePool) remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.open)
}

// solveParallel is the Workers>1 branch-and-bound driver. The root
// relaxation solves once on the model's own problem; its basis starts the
// root node and every heuristic goroutine's chain (a Basis a solve returned is
// immutable, so sharing the pointer is safe). Root heuristics race the B&B
// workers to seed the shared incumbent.
func (m *Model) solveParallel(e *engine) Result {
	opt := e.opt
	res := newResult()
	root := newSearch(e, &m.prob, opt.RootBasis, opt.RootWorkspace)

	rootSol, final := root.solveRoot(&res)
	if final {
		return res
	}
	res.Bound = rootSol.Objective

	pool := newNodePool(node{bound: rootSol.Objective, basis: res.RootBasis})
	var wg sync.WaitGroup

	if m.mostFractional(rootSol.X, opt.IntTol) != -1 {
		// The serial root schedule runs these one after another; here they
		// race each other and the workers. Each goroutine gets its own
		// problem clone, so its temporary bound fixes never leak. The dives
		// poll expired() per depth, so cancellation stays prompt.
		rootX := rootSol.X
		heuristics := []func(hs *search){
			func(hs *search) { hs.roundRepairComplete(rootX) },
			func(hs *search) { hs.dive(rootX, 0.5) },
			func(hs *search) { hs.dive(rootX, 0.3) },
			func(hs *search) {
				// The serial schedule retries with cold LPs only when the
				// warm dives leave a large gap; racing, the cold dive is
				// simply a fourth independent shot at a different vertex.
				hs.forceCold = true
				hs.dive(rootX, 0.5)
			},
		}
		for _, h := range heuristics {
			hs := newSearch(e, m.prob.Clone(), res.RootBasis, nil)
			wg.Add(1)
			go func(h func(*search), hs *search) {
				defer wg.Done()
				h(hs)
			}(h, hs)
		}
	}

	for w := 0; w < opt.Workers; w++ {
		ws := newSearch(e, m.prob.Clone(), res.RootBasis, nil)
		wg.Add(1)
		go func(w int, ws *search) {
			defer wg.Done()
			var children []node // reused: finish copies them into the pool
			for {
				nd, ok := pool.pop(w, e)
				if !ok {
					return
				}
				children = ws.processNode(nd, children[:0])
				pool.finish(w, children)
			}
		}(w, ws)
	}
	wg.Wait()

	// The closing polish runs on the model's own problem (all workers have
	// joined; no clone can race it). The root search's workspace still holds
	// the root basis as its warm-start seed.
	root.polish(pool.bestBound(e))
	return e.finalResult(res, pool.bestBound(e), pool.remaining())
}
