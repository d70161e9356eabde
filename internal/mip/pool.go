package mip

// The branch-and-bound driver and its open list. A node carries the basis its
// LP starts from, so it costs the same whichever worker pops it. The
// incumbent publication protocol and the bound-soundness argument are
// documented in DESIGN.md ("Parallel solving").

import (
	"math"
	"sync"
)

// nodePool is the search's open-node list: LIFO dives with a best-bound pick
// whenever the node count is 15 mod 16. The pool tracks the bound of every
// node a search currently holds so the global bound — min over open nodes AND
// in-flight nodes — never overstates what has been proven: a popped node's
// subtree is unexplored until its search pushes the children.
type nodePool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	open     []node
	inflight map[int]float64 // worker id → bound of the node being expanded
	closed   bool            // stop: node/time limit reached, stalled or cancelled
}

func newNodePool(root node) *nodePool {
	p := &nodePool{open: []node{root}, inflight: map[int]float64{}}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// pop hands worker w the next node, blocking while the list is empty but
// other workers still hold nodes whose children may arrive. It returns false
// when the search is over: the tree is exhausted (no open and no in-flight
// nodes — checked first, as a drained tree ends the search whatever the
// limits say), or limits hit, stalled or cancelled.
func (p *nodePool) pop(w int, e *engine) (node, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.open) == 0 && len(p.inflight) == 0 {
			p.cond.Broadcast() // drained: wake every waiter so all exit
			return node{}, false
		}
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
			if int(e.nodes.Load())%16 == 15 {
				for i := range p.open {
					if p.open[i].bound < p.open[pick].bound {
						pick = i
					}
				}
			}
			nd := p.open[pick]
			p.open = append(p.open[:pick], p.open[pick+1:]...)
			p.inflight[w] = nd.bound
			return nd, true
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
// best objective any unexplored subtree could still reach — or, with nothing
// outstanding, the incumbent objective.
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

// drain expands nodes from the pool as worker w until the pool ends the
// search.
func (s *search) drain(p *nodePool, w int) {
	var children []node // reused: finish copies them into the pool
	for {
		nd, ok := p.pop(w, s.e)
		if !ok {
			return
		}
		children = s.processNode(nd, children[:0])
		p.finish(w, children)
	}
}

// branchAndBound is the solve's driver. The root LP solves on the calling
// goroutine, on the model's own problem, and its basis starts the root node
// and every other worker's chain (a Basis a solve returned is immutable, so
// sharing the pointer is safe). Workers−1 searches on problem clones then
// start draining the pool while the root search runs the root heuristics,
// which seed the shared incumbent, before it drains the pool too. At one
// worker nothing is forked: root LP, root heuristics, node loop, the serial
// order.
func (m *Model) branchAndBound(e *engine) Result {
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
	for w := 1; w < opt.Workers; w++ {
		s := newSearch(e, m.prob.Clone(), res.RootBasis, nil)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.drain(pool, w)
		}(w)
	}
	if m.mostFractional(rootSol.X) != -1 {
		root.rootHeuristics(rootSol)
	}
	root.drain(pool, 0)
	wg.Wait()

	// Every worker has joined: the pool's bound is final, and nothing else
	// offers an incumbent while the polish runs.
	root.polish(pool.bestBound(e))
	return e.finalResult(res, pool.bestBound(e), pool.remaining())
}
