// Fixture for the lockcheck analyzer: CFG-based lock balance and RWMutex mode
// mismatches. Loaded under "ras/internal/lockcheck"; the
// rule is unscoped, so any path works.
package lockcheck

import "sync"

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// Positive: the early return leaves mu held.
func (g *guarded) leakOnEarlyReturn(cond bool) int {
	g.mu.Lock() // want `g\.mu\.Lock\(\) is not released on every path out of leakOnEarlyReturn`
	if cond {
		return 0
	}
	g.mu.Unlock()
	return g.n
}

// Negative: released on both paths.
func (g *guarded) balancedBranches(cond bool) int {
	g.mu.Lock()
	if cond {
		g.mu.Unlock()
		return 0
	}
	g.mu.Unlock()
	return g.n
}

// Negative: deferred release covers every path, including the early return.
func (g *guarded) deferred(cond bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cond {
		return 0
	}
	return g.n
}

// Negative: a deferred closure releasing the lock counts too.
func (g *guarded) deferredClosure() int {
	g.mu.Lock()
	defer func() {
		g.mu.Unlock()
	}()
	return g.n
}

// Negative: acquire/release balanced inside each loop iteration.
func (g *guarded) perIteration(k int) int {
	total := 0
	for i := 0; i < k; i++ {
		g.mu.Lock()
		total += g.n
		g.mu.Unlock()
	}
	return total
}

// Positive: a write lock released with the read-mode method.
func (g *guarded) modeMismatch() {
	g.rw.Lock()
	g.rw.RUnlock() // want `g\.rw\.RUnlock\(\) releases a lock acquired with Lock`
}

// Positive: deferred release in the wrong mode.
func (g *guarded) deferredMismatch() int {
	g.rw.RLock() // want `g\.rw\.RLock\(\) is released by a deferred Unlock`
	defer g.rw.Unlock()
	return g.n
}

// Negative: a panic exit does not reach the synthetic exit, so a lock held
// there is not a leak (the process is going down anyway).
func (g *guarded) panicPath(cond bool) {
	g.mu.Lock()
	if cond {
		panic("invariant broken")
	}
	g.mu.Unlock()
}

// Positive: function literals are balanced as functions of their own.
func (g *guarded) inLiteral() func() {
	return func() {
		g.mu.Lock() // want `g\.mu\.Lock\(\) is not released on every path out of inLiteral literal`
	}
}

// Negative: releasing a caller-held lock without acquiring it is a helper
// idiom, not a finding.
func (g *guarded) releaseOnly() {
	g.mu.Unlock()
}
