package topology

import (
	"testing"
	"testing/quick"

	"ras/internal/hardware"
)

func gen(t testing.TB, spec GenSpec) *Region {
	t.Helper()
	r, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// nested reports the first server that disagrees with an earlier server of
// its rack about their MSB, or of its MSB about their datacenter.
func nested(r *Region) (ServerID, bool) {
	msbOfRack, dcOfMSB := map[int]int{}, map[int]int{}
	for _, s := range r.Servers {
		if m, ok := msbOfRack[s.Rack]; ok && m != s.MSB {
			return s.ID, false
		}
		if d, ok := dcOfMSB[s.MSB]; ok && d != s.DC {
			return s.ID, false
		}
		msbOfRack[s.Rack], dcOfMSB[s.MSB] = s.MSB, s.DC
	}
	return 0, true
}

func TestGenerateCounts(t *testing.T) {
	r := gen(t, GenSpec{DCs: 2, MSBsPerDC: 3, RacksPerMSB: 4, ServersPerRack: 5, Seed: 1})
	if r.NumDCs != 2 || r.NumMSBs != 6 || r.NumRacks != 24 {
		t.Fatalf("dims: %d DCs %d MSBs %d racks", r.NumDCs, r.NumMSBs, r.NumRacks)
	}
	if len(r.Servers) != 120 {
		t.Fatalf("%d servers, want 120", len(r.Servers))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{DCs: 2, MSBsPerDC: 2, RacksPerMSB: 3, ServersPerRack: 4, Seed: 7}
	a, b := gen(t, spec), gen(t, spec)
	for i := range a.Servers {
		if a.Servers[i] != b.Servers[i] {
			t.Fatalf("server %d differs between identical specs", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenSpec{}); err == nil {
		t.Fatal("zero spec must be rejected")
	}
	if _, err := Generate(GenSpec{DCs: 1, MSBsPerDC: -1, RacksPerMSB: 1, ServersPerRack: 1}); err == nil {
		t.Fatal("negative dims must be rejected")
	}
}

func TestHierarchyConsistency(t *testing.T) {
	r := gen(t, GenSpec{DCs: 3, MSBsPerDC: 2, RacksPerMSB: 3, ServersPerRack: 2, Seed: 3})
	for i := range r.Servers {
		s := &r.Servers[i]
		if int(s.ID) != i {
			t.Fatalf("server %d has ID %d", i, s.ID)
		}
		if r.Server(s.ID) != s {
			t.Fatal("Server() must return the same record")
		}
	}
	if id, ok := nested(r); !ok {
		t.Fatalf("server %+v leaves the rack → MSB → DC hierarchy", r.Servers[id])
	}
}

func TestPartitionsCoverExactly(t *testing.T) {
	r := gen(t, GenSpec{DCs: 2, MSBsPerDC: 3, RacksPerMSB: 2, ServersPerRack: 3, Seed: 5})
	for name, part := range map[string][][]ServerID{
		"msb":  r.ServersByMSB(),
		"rack": r.ServersByRack(),
	} {
		seen := make(map[ServerID]bool)
		for _, grp := range part {
			for _, id := range grp {
				if seen[id] {
					t.Fatalf("%s partition repeats server %d", name, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != len(r.Servers) {
			t.Fatalf("%s partition covers %d servers, want %d", name, len(seen), len(r.Servers))
		}
	}
}

func TestTypeMixRowsSumToOne(t *testing.T) {
	r := gen(t, GenSpec{DCs: 1, MSBsPerDC: 4, RacksPerMSB: 5, ServersPerRack: 4, Seed: 9})
	mix := r.TypeMixByMSB()
	for m, row := range mix {
		sum := 0.0
		for _, f := range row {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("MSB %d mix sums to %v", m, sum)
		}
	}
}

func TestHeterogeneitySkew(t *testing.T) {
	// Old MSBs carry more GenI hardware than new MSBs (Figure 2 shape).
	r := gen(t, GenSpec{DCs: 1, MSBsPerDC: 10, RacksPerMSB: 10, ServersPerRack: 10, Seed: 11})
	genIShare := func(msb int) float64 {
		total, old := 0, 0
		for i := range r.Servers {
			if r.Servers[i].MSB != msb {
				continue
			}
			total++
			if r.Catalog.Type(r.Servers[i].Type).Generation == hardware.GenI {
				old++
			}
		}
		return float64(old) / float64(total)
	}
	if genIShare(0) <= genIShare(9) {
		t.Errorf("oldest MSB GenI share %.2f not above newest %.2f", genIShare(0), genIShare(9))
	}
}

func TestUniformDisablesSkew(t *testing.T) {
	// Racks are homogeneous, so per-type shares are noisy; aggregate per
	// generation instead, where uniform sampling must show no age trend.
	r := gen(t, GenSpec{DCs: 1, MSBsPerDC: 8, RacksPerMSB: 40, ServersPerRack: 4, Seed: 13, Uniform: true})
	genIShare := func(msb int) float64 {
		total, old := 0, 0
		for i := range r.Servers {
			if r.Servers[i].MSB != msb {
				continue
			}
			total++
			if r.Catalog.Type(r.Servers[i].Type).Generation == hardware.GenI {
				old++
			}
		}
		return float64(old) / float64(total)
	}
	min, max := 1.0, 0.0
	for m := 0; m < r.NumMSBs; m++ {
		s := genIShare(m)
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 0.35 {
		t.Errorf("uniform region still skewed: GenI share spans [%.2f, %.2f]", min, max)
	}
}

func TestPowerByMSB(t *testing.T) {
	r := gen(t, GenSpec{DCs: 1, MSBsPerDC: 2, RacksPerMSB: 2, ServersPerRack: 2, Seed: 15})
	all := r.PowerByMSB(nil)
	none := r.PowerByMSB(func(ServerID) bool { return false })
	for m := range all {
		if all[m] <= 0 {
			t.Errorf("MSB %d power %v, want > 0", m, all[m])
		}
		if none[m] != 0 {
			t.Errorf("filtered power must be 0, got %v", none[m])
		}
	}
}

// Property: generation is total and structurally consistent for random specs.
func TestQuickGenerate(t *testing.T) {
	check := func(seed int64, d, m, rk, s uint8) bool {
		spec := GenSpec{
			DCs:            int(d%3) + 1,
			MSBsPerDC:      int(m%4) + 1,
			RacksPerMSB:    int(rk%5) + 1,
			ServersPerRack: int(s%6) + 1,
			Seed:           seed,
		}
		r, err := Generate(spec)
		if err != nil {
			return false
		}
		want := spec.DCs * spec.MSBsPerDC * spec.RacksPerMSB * spec.ServersPerRack
		if len(r.Servers) != want {
			return false
		}
		for i := range r.Servers {
			sv := &r.Servers[i]
			if sv.Type < 0 || sv.Type >= r.Catalog.Len() {
				return false
			}
		}
		_, ok := nested(r)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
