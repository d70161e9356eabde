// Package topology models the physical layout of a Facebook-style region:
// datacenters containing main switch boards (MSBs — the largest fault
// domains), which contain racks of servers (paper §2.1, Figure 1). It also
// provides a seeded synthetic region generator whose per-MSB hardware
// mixtures reproduce the heterogeneity skew of Figure 2: older MSBs carry
// older generations, newer MSBs carry the newest hardware, and specialty
// hardware (GPU, storage) clusters unevenly.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"ras/internal/hardware"
)

// ServerID identifies a server within a region.
type ServerID int32

// Server is one physical machine.
type Server struct {
	ID   ServerID
	Type int // hardware type index within the region's catalog
	Rack int // global rack index
	MSB  int // global MSB index
	DC   int // datacenter index
}

// Region is the full physical inventory RAS allocates over.
type Region struct {
	Name    string
	Catalog *hardware.Catalog
	Servers []Server

	NumDCs   int
	NumMSBs  int
	NumRacks int

	msbToDC   []int // MSB index → DC index
	rackToMSB []int // rack index → MSB index
}

// DCOfMSB reports the datacenter of an MSB.
func (r *Region) DCOfMSB(msb int) int { return r.msbToDC[msb] }

// MSBOfRack reports the MSB of a rack.
func (r *Region) MSBOfRack(rack int) int { return r.rackToMSB[rack] }

// Server returns the server with the given ID.
func (r *Region) Server(id ServerID) *Server { return &r.Servers[id] }

// ServersByMSB partitions server IDs by MSB (the ΨF partition of the MIP).
func (r *Region) ServersByMSB() [][]ServerID {
	out := make([][]ServerID, r.NumMSBs)
	for i := range r.Servers {
		s := &r.Servers[i]
		out[s.MSB] = append(out[s.MSB], s.ID)
	}
	return out
}

// ServersByRack partitions server IDs by rack (the ΨK partition).
func (r *Region) ServersByRack() [][]ServerID {
	out := make([][]ServerID, r.NumRacks)
	for i := range r.Servers {
		s := &r.Servers[i]
		out[s.Rack] = append(out[s.Rack], s.ID)
	}
	return out
}

// ServersByDC partitions server IDs by datacenter (the ΨD partition).
func (r *Region) ServersByDC() [][]ServerID {
	out := make([][]ServerID, r.NumDCs)
	for i := range r.Servers {
		s := &r.Servers[i]
		out[s.DC] = append(out[s.DC], s.ID)
	}
	return out
}

// TypeMixByMSB reports, per MSB, the fraction of servers of each hardware
// type. Rows sum to 1 for non-empty MSBs. It backs the Figure 2
// heterogeneity characterization.
func (r *Region) TypeMixByMSB() [][]float64 {
	counts := make([][]float64, r.NumMSBs)
	totals := make([]float64, r.NumMSBs)
	for i := range counts {
		counts[i] = make([]float64, r.Catalog.Len())
	}
	for i := range r.Servers {
		s := &r.Servers[i]
		counts[s.MSB][s.Type]++
		totals[s.MSB]++
	}
	for m := range counts {
		if totals[m] == 0 {
			continue
		}
		for t := range counts[m] {
			counts[m][t] /= totals[m]
		}
	}
	return counts
}

// PowerByMSB reports the total nominal power draw of the given servers
// grouped by MSB. A nil filter includes every server.
func (r *Region) PowerByMSB(include func(ServerID) bool) []float64 {
	out := make([]float64, r.NumMSBs)
	for i := range r.Servers {
		s := &r.Servers[i]
		if include != nil && !include(s.ID) {
			continue
		}
		out[s.MSB] += r.Catalog.Type(s.Type).PowerWatts
	}
	return out
}

// GenSpec parameterizes the synthetic region generator.
type GenSpec struct {
	Name           string
	DCs            int // datacenters in the region
	MSBsPerDC      int
	RacksPerMSB    int
	ServersPerRack int
	Seed           int64
	// Catalog to draw hardware from; nil means hardware.DefaultCatalog().
	Catalog *hardware.Catalog
	// Uniform disables the age-based hardware skew, giving every MSB the
	// same expected mixture (the "perfectly spread" lower-bound scenario of
	// §3.3.1 where the ideal buffer is 1/numMSBs).
	Uniform bool
}

// Validate reports whether the spec is usable.
func (g GenSpec) Validate() error {
	if g.DCs <= 0 || g.MSBsPerDC <= 0 || g.RacksPerMSB <= 0 || g.ServersPerRack <= 0 {
		return fmt.Errorf("topology: all GenSpec dimensions must be positive: %+v", g)
	}
	return nil
}

// Generate builds a synthetic region. Generation is deterministic for a
// given spec (including Seed).
func Generate(spec GenSpec) (*Region, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cat := spec.Catalog
	if cat == nil {
		cat = hardware.DefaultCatalog()
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	numMSBs := spec.DCs * spec.MSBsPerDC
	numRacks := numMSBs * spec.RacksPerMSB
	numServers := numRacks * spec.ServersPerRack

	r := &Region{
		Name:      spec.Name,
		Catalog:   cat,
		Servers:   make([]Server, 0, numServers),
		NumDCs:    spec.DCs,
		NumMSBs:   numMSBs,
		NumRacks:  numRacks,
		msbToDC:   make([]int, numMSBs),
		rackToMSB: make([]int, numRacks),
	}

	msb := 0
	rack := 0
	var id ServerID
	for dc := 0; dc < spec.DCs; dc++ {
		for mi := 0; mi < spec.MSBsPerDC; mi++ {
			r.msbToDC[msb] = dc
			// MSB "age": 0 (oldest) .. 1 (newest), by global deployment order.
			age := 0.0
			if numMSBs > 1 {
				age = float64(msb) / float64(numMSBs-1)
			}
			weights := msbTypeWeights(cat, age, spec.Uniform, rng)
			for ri := 0; ri < spec.RacksPerMSB; ri++ {
				r.rackToMSB[rack] = msb
				// Racks are homogeneous in practice: pick one type per rack.
				t := sampleType(weights, rng)
				for si := 0; si < spec.ServersPerRack; si++ {
					r.Servers = append(r.Servers, Server{
						ID: id, Type: t, Rack: rack, MSB: msb, DC: dc,
					})
					id++
				}
				rack++
			}
			msb++
		}
	}
	return r, nil
}

// msbTypeWeights computes the sampling weight of each hardware type for an
// MSB of the given age. Old MSBs favor GenI hardware and the discontinued
// C5/C9 storage types; new MSBs favor GenIII and GPU hardware.
func msbTypeWeights(cat *hardware.Catalog, age float64, uniform bool, rng *rand.Rand) []float64 {
	w := make([]float64, cat.Len())
	for i := range w {
		t := cat.Type(i)
		base := 1.0
		if !uniform {
			switch t.Generation {
			case hardware.GenI:
				base = 2.5 * (1 - age)
			case hardware.GenII:
				base = 1.5 * (1 - 0.5*math.Abs(age-0.5))
			case hardware.GenIII:
				base = 2.5 * age
			}
			if t.GPUs > 0 {
				base *= 0.3 + 0.9*age // accelerators cluster in new MSBs
			}
			if t.FlashTB > 0 {
				base *= 0.8
			}
			// Per-MSB idiosyncratic skew gives the jagged Figure 2 mixtures.
			base *= 0.3 + 1.4*rng.Float64()
		}
		if base < 0.01 {
			base = 0.01
		}
		w[i] = base
	}
	return w
}

func sampleType(weights []float64, rng *rand.Rand) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
