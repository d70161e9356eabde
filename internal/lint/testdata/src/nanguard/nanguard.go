// Package nanguard exercises the nanguard rule: float divisions and
// math.Sqrt/math.Log calls whose operand is not proven safe on every
// path through the function.
package nanguard

import "math"

// ExactZero is the designated exact-compare helper: its body is the one
// place a raw float == is permitted, and nanguard recognizes guards
// routed through it (the same seam floatcmp enforces).
func ExactZero(x float64) bool { return x == 0 }

// devexScore is the seeded regression: a Devex-style pricing ratio
// without the weight floor. Reference weights decay across re-pricing
// rounds, so gamma can reach exactly zero and the score becomes Inf.
func devexScore(viol, gamma float64) float64 {
	return viol * viol / gamma // want `float division by gamma`
}

// devexScoreFloored is the repaired form: the builtin max pins the
// denominator at >= 1.
func devexScoreFloored(viol, gamma float64) float64 {
	return viol * viol / max(gamma, 1)
}

func guardedByHelper(num, den float64) float64 {
	if ExactZero(den) {
		return 0
	}
	return num / den // proven on the helper's false edge
}

func guardedByCompare(num, den float64) float64 {
	if den > 0 {
		return num / den
	}
	return 0
}

func guardedByAbs(num, den float64) float64 {
	if math.Abs(den) > 1e-12 {
		return num / den
	}
	return 0
}

func nonzeroLiteral(x float64) float64 {
	return x / 2
}

// halfGuarded repairs only the negative side: the merge still admits an
// exact zero.
func halfGuarded(num, den float64) float64 {
	if den < 0 {
		den = 1
	}
	return num / den // want `float division by den`
}

func quoAssignGuarded(sum, w float64) float64 {
	if ExactZero(w) {
		return sum
	}
	sum /= w
	return sum
}

func quoAssignUnguarded(sum, w float64) float64 {
	sum /= w // want `float division by w`
	return sum
}

func sqrtPaths(x float64) float64 {
	if x >= 0 {
		return math.Sqrt(x)
	}
	return math.Sqrt(x) // want `math.Sqrt of x`
}

func logPaths(x float64) float64 {
	if x > 0 {
		return math.Log(x)
	}
	return math.Log(x) // want `math.Log of x`
}

// intConversion: integer interval facts flow through float64(...)
// conversions.
func intConversion(total float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return total / float64(n)
}
