package solver

import (
	"context"
	"testing"

	"ras/internal/hardware"
	"ras/internal/reservation"
)

// TestWearAwarePlacement exercises the §5.2 IO-aware extension: wear that
// is reported is priced with nothing set, so under the zero Config a
// flash-consuming reservation must move off the worn drives it holds onto
// fresher ones, though each move costs M_s. A solver that left wear
// unpriced would keep its members where they are.
func TestWearAwarePlacement(t *testing.T) {
	region := testRegion(t, 1, 2, 6, 8, 41)
	cat := region.Catalog

	// Flash-only eligibility for a DataStore-style reservation.
	var flashTypes []int
	flashServers := 0
	for i := 0; i < cat.Len(); i++ {
		if cat.Type(i).FlashTB > 0 {
			flashTypes = append(flashTypes, i)
		}
	}
	for i := range region.Servers {
		if cat.Type(region.Servers[i].Type).FlashTB > 0 {
			flashServers++
		}
	}
	if flashServers < 8 {
		t.Skip("region lacks flash servers at this seed")
	}

	rsvs := []reservation.Reservation{{
		ID: 0, Name: "storage", Class: hardware.DataStore,
		RRUs: float64(flashServers) / 3, CountBased: true,
		EligibleTypes: flashTypes, Policy: reservation.DefaultPolicy(),
	}}

	in := freshInput(region, rsvs)
	// Mark half the flash fleet as heavily worn and bind it to the
	// reservation.
	worn := map[int]bool{}
	odd := false
	for i := range region.Servers {
		if cat.Type(region.Servers[i].Type).FlashTB > 0 {
			odd = !odd
			if odd {
				in.States[i].FlashWear = 0.9
				in.States[i].Current = 0
				worn[i] = true
			}
		}
	}

	res, err := Solve(context.Background(), in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assignedWorn, assignedFresh := 0, 0
	for i, tgt := range res.Targets {
		if tgt != 0 {
			continue
		}
		if worn[i] {
			assignedWorn++
		} else {
			assignedFresh++
		}
	}
	if assignedWorn+assignedFresh == 0 {
		t.Fatal("nothing assigned")
	}
	// With fresh capacity covering the request, worn drives should be
	// mostly avoided.
	if assignedWorn > assignedFresh/2 {
		t.Errorf("wear-aware placement used %d worn vs %d fresh flash servers", assignedWorn, assignedFresh)
	}
}

func TestWearBucket(t *testing.T) {
	cases := map[float64]int{0: 0, 0.1: 0, 0.26: 1, 0.5: 2, 0.76: 3, 1.0: 3}
	for w, want := range cases {
		if got := wearBucket(w); got != want {
			t.Errorf("wearBucket(%v) = %d, want %d", w, got, want)
		}
	}
}
