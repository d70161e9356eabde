// Fixture for the floatcmp analyzer, loaded under "ras/internal/lp" (in
// scope).
package floatcmp

func eq(a, b float64) bool {
	return a == b // want `float == float compares exactly`
}

func neq(a, b float64) bool {
	return a != b // want `float != float compares exactly`
}

func constOperand(a float64) bool {
	return a == 0 // want `float == float compares exactly`
}

func ints(a, b int) bool {
	return a == b // integer comparison: fine
}

func ordered(a, b float64) bool {
	return a < b // ordered comparison: fine
}

// ExactZero is a designated helper: exact comparison is its whole job.
func ExactZero(v float64) bool { return v == 0 }
