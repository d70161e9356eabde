// Negative fixture: loaded under "ras/internal/experiments", one of the
// packages whose job is timing runs (wallClockExempt), so time.Now is fine
// here — but the global rand source stays forbidden module-wide.
package determinismout

import (
	"math/rand"
	"time"
)

func timing() time.Time {
	return time.Now() // exempt from the wall-clock half: no finding
}

func figure() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the global rand source`
}
