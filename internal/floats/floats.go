// Package floats holds the designated exact float comparisons of the
// numerical core (lp, mip, solver, localsearch). raslint's floatcmp rule
// forbids == and != between floats in those packages; the helpers here are
// the one place the two intended uses live.
package floats

// ExactZero reports whether v is exactly zero. Two conventions rely on it:
// sparse storage keeps absent entries as exact zeros (assigned, never the
// residue of arithmetic), and a zero Config/Options/Policy field means "knob
// unset". In both the question is identity, not closeness — a tolerance
// would misclassify genuinely tiny values.
func ExactZero(v float64) bool { return v == 0 }

// ExactEqual reports whether a and b are exactly equal, for values copied
// from the same store (variable bounds, pivot targets, warm-start points,
// sort keys), where the question is "is this that same stored value".
func ExactEqual(a, b float64) bool { return a == b }
