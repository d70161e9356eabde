// Package hardware models the heterogeneous server hardware of a region:
// hardware categories and subtypes (the <Ci-Sj> tuples of the paper's
// Figure 2), processor generations, and the Relative Value / relative
// resource unit (RRU) tables of Figures 3 and Section 3.1.
//
// An RRU abstracts "how much work a server of type T does for service class
// S". The async solver consumes RRUs as the V_{s,r} coefficients of its MIP,
// which is what lets one reservation be fulfilled by a mixture of hardware
// generations with equivalent aggregate throughput.
package hardware

import (
	"fmt"
	"sort"
)

// Generation is a processor generation. The paper evaluates three.
type Generation int

// Processor generations.
const (
	GenI Generation = iota + 1
	GenII
	GenIII
)

func (g Generation) String() string {
	switch g {
	case GenI:
		return "Gen I"
	case GenII:
		return "Gen II"
	case GenIII:
		return "Gen III"
	}
	return fmt.Sprintf("Gen(%d)", int(g))
}

// Type describes one hardware subtype, e.g. "C4-S2": compute category C4,
// subtype S2. Subtypes exist only where there is a notable performance
// difference (paper §2.2).
type Type struct {
	ID         string     // "C4-S2"
	Category   int        // 1..9
	Subtype    int        // 1..3 (0 when the category has a single subtype)
	Generation Generation // processor generation
	Cores      int        // physical cores
	MemGB      int        // main memory
	FlashTB    float64    // local flash
	GPUs       int        // accelerators
	PowerWatts float64    // nominal draw, used for the power-spread figures
}

// Class is a service class with distinct hardware affinity. These mirror the
// four large services of Figure 3 plus the fleet-average bucket.
type Class int

// Service classes.
const (
	DataStore Class = iota
	Feed1
	Feed2
	Web
	FleetAvg
	BatchML // network-heavy ML training (Fig 13 service 13, Fig 15)
	numClasses
)

var classNames = [...]string{"DataStore", "Feed1", "Feed2", "Web", "FleetAvg", "BatchML"}

func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists every service class.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// relativeValue holds Figure 3's per-generation gains (GenI, GenII, GenIII)
// for every class.
var relativeValue = [numClasses][3]float64{
	DataStore: {1.00, 1.02, 1.03},
	Feed1:     {1.00, 1.36, 1.38},
	Feed2:     {1.00, 1.05, 1.52},
	Web:       {1.00, 1.47, 1.82},
	FleetAvg:  {1.00, 1.25, 1.45},
	BatchML:   {1.00, 1.40, 2.00},
}

// RelativeValue reports how much value class c gains from generation g,
// normalized to GenI = 1.0. The constants reproduce Figure 3: Web gains
// 1.47× and 1.82×, DataStore is flat, Feed1 gains on II but not III, Feed2
// the reverse, and the fleet average gains moderately per generation. An
// unknown class or generation is worth 1.0.
func RelativeValue(c Class, g Generation) float64 {
	if c < 0 || c >= numClasses || g < GenI || g > GenIII {
		return 1.0
	}
	return relativeValue[c][g-1]
}

// RRU reports the relative resource units one server of type t provides to a
// reservation of class c: the generation's relative value scaled by the
// server's core count against a 32-core reference. A zero return means the
// type cannot serve the class at all (e.g. GPU boxes for Web).
func RRU(t *Type, c Class) float64 {
	if t.GPUs > 0 && c != BatchML && c != FleetAvg {
		return 0 // accelerator hardware is reserved for ML-style classes
	}
	if c == BatchML && t.Generation == GenI {
		return 0 // ML stacks require newer kernels/hardware (paper §4.3)
	}
	base := RelativeValue(c, t.Generation)
	return base * float64(t.Cores) / 32.0
}

// Catalog is an immutable set of hardware types with stable indices.
type Catalog struct {
	types []Type
	byID  map[string]int
}

// NewCatalog builds a catalog from the given types. Type IDs must be unique.
func NewCatalog(types []Type) (*Catalog, error) {
	c := &Catalog{types: append([]Type(nil), types...), byID: make(map[string]int, len(types))}
	for i, t := range c.types {
		if t.ID == "" {
			return nil, fmt.Errorf("hardware: type %d has empty ID", i)
		}
		if _, dup := c.byID[t.ID]; dup {
			return nil, fmt.Errorf("hardware: duplicate type ID %q", t.ID)
		}
		c.byID[t.ID] = i
	}
	return c, nil
}

// Len reports the number of types.
func (c *Catalog) Len() int { return len(c.types) }

// Type returns the type at index i.
func (c *Catalog) Type(i int) *Type { return &c.types[i] }

// Index returns the index of the type with the given ID, or -1.
func (c *Catalog) Index(id string) int {
	if i, ok := c.byID[id]; ok {
		return i
	}
	return -1
}

// IDs lists all type IDs in index order.
func (c *Catalog) IDs() []string {
	out := make([]string, len(c.types))
	for i, t := range c.types {
		out[i] = t.ID
	}
	return out
}

// EligibleTypes returns the indices of types with RRU > 0 for class cl,
// sorted ascending.
func (c *Catalog) EligibleTypes(cl Class) []int {
	var out []int
	for i := range c.types {
		if RRU(&c.types[i], cl) > 0 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// DefaultCatalog reproduces the paper's Figure 2 inventory: nine hardware
// categories, twelve subtypes where performance differs, across three
// processor generations plus storage/GPU specialties.
func DefaultCatalog() *Catalog {
	types := []Type{
		{ID: "C1", Category: 1, Generation: GenI, Cores: 32, MemGB: 64, PowerWatts: 300},
		{ID: "C2-S1", Category: 2, Subtype: 1, Generation: GenI, Cores: 32, MemGB: 128, PowerWatts: 320},
		{ID: "C2-S2", Category: 2, Subtype: 2, Generation: GenII, Cores: 36, MemGB: 128, PowerWatts: 330},
		{ID: "C3", Category: 3, Generation: GenII, Cores: 48, MemGB: 96, PowerWatts: 360},
		{ID: "C4-S1", Category: 4, Subtype: 1, Generation: GenII, Cores: 48, MemGB: 192, PowerWatts: 380},
		{ID: "C4-S2", Category: 4, Subtype: 2, Generation: GenIII, Cores: 64, MemGB: 192, PowerWatts: 400},
		{ID: "C4-S3", Category: 4, Subtype: 3, Generation: GenIII, Cores: 64, MemGB: 256, PowerWatts: 420},
		{ID: "C5", Category: 5, Generation: GenI, Cores: 24, MemGB: 64, FlashTB: 8, PowerWatts: 280},
		{ID: "C6-S1", Category: 6, Subtype: 1, Generation: GenII, Cores: 32, MemGB: 64, FlashTB: 16, PowerWatts: 340},
		{ID: "C6-S2", Category: 6, Subtype: 2, Generation: GenIII, Cores: 32, MemGB: 96, FlashTB: 32, PowerWatts: 360},
		{ID: "C7-S1", Category: 7, Subtype: 1, Generation: GenII, Cores: 32, MemGB: 256, GPUs: 4, PowerWatts: 900},
		{ID: "C7-S2", Category: 7, Subtype: 2, Generation: GenIII, Cores: 48, MemGB: 384, GPUs: 8, PowerWatts: 1400},
		{ID: "C7-S3", Category: 7, Subtype: 3, Generation: GenIII, Cores: 64, MemGB: 512, GPUs: 8, PowerWatts: 1600},
		{ID: "C8", Category: 8, Generation: GenII, Cores: 40, MemGB: 768, PowerWatts: 450},
		{ID: "C9-S1", Category: 9, Subtype: 1, Generation: GenI, Cores: 16, MemGB: 32, FlashTB: 4, PowerWatts: 220},
		{ID: "C9-S2", Category: 9, Subtype: 2, Generation: GenII, Cores: 20, MemGB: 48, FlashTB: 8, PowerWatts: 240},
	}
	c, err := NewCatalog(types)
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return c
}
