// Fixture for the mapiter analyzer, loaded under "ras/internal/solver" (in
// scope).
package mapiter

import "sort"

func leak(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" while ranging over a map`
	}
	return keys
}

func send(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `send into a channel while ranging over a map`
	}
}

func sorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // sorted right after the loop: fine
	}
	sort.Strings(keys)
	return keys
}

func sortedOutsideIf(m map[string]int, cond bool) []string {
	var keys []string
	if cond {
		for k := range m {
			keys = append(keys, k) // sorted after the enclosing if: fine
		}
	}
	sort.Strings(keys)
	return keys
}

func loopLocal(m map[string]int) int {
	n := 0
	for _, v := range m {
		parts := []int{}
		parts = append(parts, v) // target dies with the iteration: fine
		n += len(parts)
	}
	return n
}

type load struct {
	excess float64
	racks  int
}

// The pickPhase2 defect fixed in PR 15: a float sum accumulated in map order
// through a pointer that outlives the iteration, then used to rank
// candidates. The integer count beside it is order-independent.
func floatAccumulate(rackSum map[[2]int64]float64, limit map[int64]float64) map[int64]*load {
	perRes := make(map[int64]*load)
	for k, sum := range rackSum {
		id := k[0]
		l := perRes[id]
		if l == nil {
			l = &load{}
			perRes[id] = l
		}
		if over := sum - limit[id]; over > 0 {
			l.excess += over // want `float \+= while ranging over a map accumulates in nondeterministic order`
		}
		l.racks++
	}
	return perRes
}

func floatTotal(m map[string]float64) (total float64, n int) {
	for _, v := range m {
		total -= v // want `float -= while ranging over a map`
		n += 1     // integer sum: fine
	}
	return total, n
}

func floatLoopLocal(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		var sum float64
		var acc struct{ s float64 }
		for _, v := range vs {
			sum += v   // dies with the iteration: fine
			acc.s *= v // value-typed local: fine
		}
		if sum+acc.s > 0 {
			n++
		}
	}
	return n
}
