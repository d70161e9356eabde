// Package workload generates synthetic capacity requests and container
// workloads matching the paper's characterization:
//
//   - Figure 4: requested sizes span 1 to ~30,000 capacity units
//     (log-uniform, most requests a few hundred to a few thousand), and the
//     number of hardware types that can fulfill a request is bimodal — many
//     requests demand exactly one type (the newest generation), a large mode
//     can be served by ~8 types, and a small tail accepts 10–12 types;
//   - Figure 16: capacity requests arrive with a diurnal, weekday-heavy
//     pattern (spikes during working hours, quiet nights and weekends).
package workload

import (
	"math"
	"math/rand"
	"strconv"

	"ras/internal/hardware"
	"ras/internal/reservation"
)

// RequestGen generates synthetic capacity requests.
type RequestGen struct {
	rng *rand.Rand
	cat *hardware.Catalog
	// MaxUnits caps request sizes (paper max ≈ 30,000; simulations scale
	// this down to the synthetic region's size).
	MaxUnits int
	seq      int
}

// NewRequestGen creates a generator. maxUnits ≤ 0 selects the paper's 30,000.
func NewRequestGen(cat *hardware.Catalog, maxUnits int, seed int64) *RequestGen {
	if maxUnits <= 0 {
		maxUnits = 30000
	}
	return &RequestGen{rng: rand.New(rand.NewSource(seed)), cat: cat, MaxUnits: maxUnits}
}

// fungibilityModes reproduces Figure 4's x-axis distribution: the number of
// hardware types that can fulfill a request.
func (g *RequestGen) fungibility() int {
	r := g.rng.Float64()
	switch {
	case r < 0.30: // newest generation only
		return 1
	case r < 0.45:
		return 2 + g.rng.Intn(3) // 2-4 types
	case r < 0.85: // the big mode around 8
		return 7 + g.rng.Intn(3) // 7-9
	default: // fully fungible tail
		return 10 + g.rng.Intn(3) // 10-12
	}
}

// size draws a request size: log-uniform between 1 and MaxUnits, giving the
// heavy mid-range mass of Figure 4.
func (g *RequestGen) size() float64 {
	lo, hi := 0.0, math.Log(float64(g.MaxUnits))
	return math.Ceil(math.Exp(lo + g.rng.Float64()*(hi-lo)))
}

// classFor picks a service class; large requests skew to Web/Feed (the
// paper's ≈30k requests come from Web and Feed).
func (g *RequestGen) classFor(size float64) hardware.Class {
	if size > float64(g.MaxUnits)/3 {
		if g.rng.Intn(2) == 0 {
			return hardware.Web
		}
		return hardware.Feed1
	}
	classes := []hardware.Class{
		hardware.Web, hardware.Feed1, hardware.Feed2,
		hardware.DataStore, hardware.FleetAvg, hardware.BatchML,
	}
	return classes[g.rng.Intn(len(classes))]
}

// Next generates one capacity request as an unregistered Reservation spec
// (ID unset; register via reservation.Store.Create).
func (g *RequestGen) Next() reservation.Reservation {
	g.seq++
	size := g.size()
	class := g.classFor(size)

	eligible := g.cat.EligibleTypes(class)
	want := g.fungibility()
	if want > len(eligible) {
		want = len(eligible)
	}
	// Restrict to the newest `want` types: requests demanding few types
	// demand the latest generation (paper §2.4).
	byGen := append([]int(nil), eligible...)
	sortByGenerationDesc(g.cat, byGen)
	types := append([]int(nil), byGen[:want]...)

	return reservation.Reservation{
		Name:          requestName(g.seq),
		Owner:         "synthetic",
		Class:         class,
		RRUs:          size,
		EligibleTypes: types,
		CountBased:    g.rng.Float64() < 0.3, // smaller services count servers
		Policy:        reservation.DefaultPolicy(),
	}
}

func requestName(seq int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	return "svc-" + string(alpha[seq%26]) + string(alpha[(seq/26)%26]) + strconv.Itoa(seq)
}

func sortByGenerationDesc(cat *hardware.Catalog, idx []int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := cat.Type(idx[j-1]), cat.Type(idx[j])
			if a.Generation < b.Generation ||
				(a.Generation == b.Generation && a.Cores < b.Cores) {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			} else {
				break
			}
		}
	}
}

// DiurnalRate reports the expected number of capacity requests during the
// hour starting at virtual time t (seconds since a Monday 00:00), scaled so
// that a weekday working hour sees `peak` requests. Nights run at ~15% and
// weekends at ~10% of peak, matching the weekday spikes of Figure 16.
func DiurnalRate(t int64, peak float64) float64 {
	const day = 24 * 3600
	const week = 7 * day
	tw := t % week
	if tw < 0 {
		tw += week
	}
	dayIdx := tw / day
	hour := (tw % day) / 3600
	if dayIdx >= 5 { // weekend
		return 0.10 * peak
	}
	if hour >= 9 && hour < 18 { // working hours
		return peak
	}
	if hour >= 7 && hour < 21 { // shoulder
		return 0.45 * peak
	}
	return 0.15 * peak
}

// ContainerGen draws container sizes for the level-2 allocator: mostly
// small (1-2 units), a tail of large containers.
type ContainerGen struct {
	rng      *rand.Rand
	maxUnits int
}

// NewContainerGen creates a container-size generator; maxUnits is the
// stacking capacity of a server.
func NewContainerGen(maxUnits int, seed int64) *ContainerGen {
	if maxUnits <= 0 {
		maxUnits = 8
	}
	return &ContainerGen{rng: rand.New(rand.NewSource(seed)), maxUnits: maxUnits}
}

// Next draws one container size in [1, maxUnits].
func (g *ContainerGen) Next() int {
	r := g.rng.Float64()
	switch {
	case r < 0.6:
		return 1
	case r < 0.85:
		return 2
	case r < 0.95:
		return g.maxUnits / 2
	default:
		return g.maxUnits
	}
}
