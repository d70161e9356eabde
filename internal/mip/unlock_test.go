package mip

import (
	"sync"
	"testing"
)

// TestManualUnlocksReleaseTheLock covers the search's functions that unlock
// by hand rather than with defer: the pool's finish and the engine's
// bestObj and fillStats each return with their mutex free. A path that
// keeps it fails here at once; a solve would instead hang its workers.
func TestManualUnlocksReleaseTheLock(t *testing.T) {
	requireUnlocked := func(mu *sync.Mutex, after string) {
		t.Helper()
		if !mu.TryLock() {
			t.Fatalf("%s returned with its lock held", after)
		}
		mu.Unlock()
	}
	p := newNodePool(node{})
	p.finish(0, []node{{bound: 1}})
	requireUnlocked(&p.mu, "nodePool.finish")

	e := &engine{}
	e.bestObj()
	requireUnlocked(&e.incMu, "engine.bestObj")
	e.fillStats(&Result{})
	requireUnlocked(&e.incMu, "engine.fillStats")
}
