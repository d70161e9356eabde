// Package reservation defines the capacity abstraction at the heart of RAS:
// a reservation is a guaranteed amount of capacity, expressed in relative
// resource units (RRUs), that functions as a logical cluster (paper §3.1).
// The package also models the capacity-request lifecycle — create, resize,
// delete — that service owners drive through the Capacity Portal (§3.2).
package reservation

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ras/internal/floats"
	"ras/internal/hardware"
)

// ID identifies a reservation.
type ID int32

// Special reservation IDs.
const (
	// Unassigned marks a server in the regional free pool.
	Unassigned ID = -1
	// SharedBuffer is the special reservation holding the shared
	// random-failure buffer (paper §3.3.1). The async solver treats it as a
	// standalone reservation sized to the expected random-failure rate.
	SharedBuffer ID = -2
)

// Policy captures a reservation's placement requirements, which the async
// solver turns into MIP constraints and objectives.
type Policy struct {
	// SpreadMSB is αF: the maximum fraction of the reservation's capacity
	// desired within a single MSB before spread penalties apply. Zero means
	// the region default (Resolve).
	SpreadMSB float64
	// SpreadRack is αK, the rack-level analogue (phase-2 goal). Zero means
	// the region default.
	SpreadRack float64
	// DCAffinity maps datacenter index → desired fraction of capacity
	// (the A_{r,G} of expression 7). Empty means no affinity constraint.
	DCAffinity map[int]float64
	// AffinityTheta is θ, the allowed deviation from DCAffinity fractions.
	// Zero means the default.
	AffinityTheta float64
	// SingleDC restricts all capacity to one datacenter (high-bandwidth ML
	// workloads, paper §4.3 service 13). -1 means unrestricted.
	SingleDC int
}

// DefaultPolicy returns the policy used when a request does not specify one.
func DefaultPolicy() Policy { return Policy{SingleDC: -1} }

// Resolve returns p with its zero αF, αK and θ set to their defaults for a
// region of numMSBs MSBs and numRacks racks: αF = 1.5/numMSBs clamped to
// [0.05, 1], αK = 4/numRacks clamped to [0.01, 1], θ = 0.05. Every backend
// prices a reservation by its resolved policy.
func (p Policy) Resolve(numMSBs, numRacks int) Policy {
	if floats.ExactZero(p.SpreadMSB) {
		p.SpreadMSB = min(max(1.5/float64(max(numMSBs, 1)), 0.05), 1)
	}
	if floats.ExactZero(p.SpreadRack) {
		p.SpreadRack = min(max(4/float64(max(numRacks, 1)), 0.01), 1)
	}
	if floats.ExactZero(p.AffinityTheta) {
		p.AffinityTheta = 0.05
	}
	return p
}

// Reservation is a logical cluster with guaranteed capacity.
type Reservation struct {
	ID    ID
	Name  string
	Owner string // business unit
	Class hardware.Class
	// RRUs is C_r: the requested capacity in relative resource units.
	RRUs float64
	// EligibleTypes restricts which hardware types may serve this
	// reservation (hardware type indices). Empty means every type with a
	// positive RRU value for Class.
	EligibleTypes []int
	// HostProfile names the OS configuration servers must run (Twine Host
	// Profiles, §3.1). Mover switches profiles when servers move.
	HostProfile string
	// Elastic marks an elastic reservation that receives idle buffer
	// capacity and can be revoked at any time (§3.4).
	Elastic bool
	// CountBased requests capacity in plain server counts instead of RRUs:
	// every eligible server contributes exactly one unit (§3.1, "smaller
	// services can use a simple count-based approach").
	CountBased bool
	Policy     Policy
}

// Eligible reports whether hardware type t (by index) with the given RRU
// value can serve the reservation.
func (r *Reservation) Eligible(t int, rru float64) bool {
	if rru <= 0 {
		return false
	}
	if len(r.EligibleTypes) == 0 {
		return true
	}
	for _, e := range r.EligibleTypes {
		if e == t {
			return true
		}
	}
	return false
}

// Value is V_{s,r}, what one server of hardware type typeIdx in datacenter
// dc contributes to the reservation: its RRU value for the reservation's
// class, 1 for a count-based reservation, and 0 when the type is not
// eligible or dc is not the one a Policy.SingleDC restriction names. It is
// the one eligibility rule: the solver prices servers by it, and the mover,
// emergency grants and capacity reports take and count servers by it.
func (r *Reservation) Value(cat *hardware.Catalog, typeIdx, dc int) float64 {
	if r.Policy.SingleDC >= 0 && dc != r.Policy.SingleDC {
		return 0
	}
	v := hardware.RRU(cat.Type(typeIdx), r.Class)
	if !r.Eligible(typeIdx, v) {
		return 0
	}
	if r.CountBased {
		return 1
	}
	return v
}

// Validate reports structural problems with the reservation.
func (r *Reservation) Validate() error {
	if r.RRUs < 0 {
		return fmt.Errorf("reservation %q: negative RRUs %v", r.Name, r.RRUs)
	}
	p := r.Policy
	if p.SpreadMSB < 0 || p.SpreadMSB > 1 || p.SpreadRack < 0 || p.SpreadRack > 1 {
		return fmt.Errorf("reservation %q: spread fractions must be in [0,1]", r.Name)
	}
	total := 0.0
	for dc, f := range p.DCAffinity {
		if f < 0 || f > 1 {
			return fmt.Errorf("reservation %q: DC %d affinity %v outside [0,1]", r.Name, dc, f)
		}
		total += f
	}
	if len(p.DCAffinity) > 0 && (total < 0.999 || total > 1.001) {
		return fmt.Errorf("reservation %q: DC affinities sum to %v, want 1", r.Name, total)
	}
	return nil
}

// Store is the authoritative, concurrency-safe registry of reservations and
// the capacity-request log. It is the state behind the Capacity Portal.
type Store struct {
	mu     sync.RWMutex
	nextID ID
	byID   map[ID]*Reservation
	log    []Request
}

// RequestKind enumerates capacity-request operations.
type RequestKind int8

// Capacity-request kinds.
const (
	Create RequestKind = iota
	Resize
	Delete
)

func (k RequestKind) String() string {
	switch k {
	case Create:
		return "create"
	case Resize:
		return "resize"
	case Delete:
		return "delete"
	}
	return fmt.Sprintf("RequestKind(%d)", int8(k))
}

// Request records one capacity request for auditability (§5.3: visibility
// into optimization decisions starts with knowing what was asked).
type Request struct {
	Kind RequestKind
	Res  ID
	RRUs float64 // requested size for Create/Resize
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byID: make(map[ID]*Reservation)}
}

// Errors returned by Store operations.
var (
	ErrNotFound = errors.New("reservation: not found")
	ErrInvalid  = errors.New("reservation: invalid")
)

// Create validates and registers a new reservation, assigning its ID.
func (s *Store) Create(r Reservation) (ID, error) {
	if err := r.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ID = s.nextID
	s.nextID++
	cp := r
	s.byID[cp.ID] = &cp
	s.log = append(s.log, Request{Kind: Create, Res: cp.ID, RRUs: cp.RRUs})
	return cp.ID, nil
}

// Resize changes the requested RRUs of an existing reservation.
func (s *Store) Resize(id ID, rrus float64) error {
	if rrus < 0 {
		return fmt.Errorf("%w: negative RRUs", ErrInvalid)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byID[id]
	if !ok {
		return ErrNotFound
	}
	r.RRUs = rrus
	s.log = append(s.log, Request{Kind: Resize, Res: id, RRUs: rrus})
	return nil
}

// Delete removes a reservation.
func (s *Store) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[id]; !ok {
		return ErrNotFound
	}
	delete(s.byID, id)
	s.log = append(s.log, Request{Kind: Delete, Res: id})
	return nil
}

// Get returns a copy of the reservation with the given ID.
func (s *Store) Get(id ID) (Reservation, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byID[id]
	if !ok {
		return Reservation{}, ErrNotFound
	}
	return *r, nil
}

// All returns copies of every reservation, sorted by ID. This is the solver
// input snapshot.
func (s *Store) All() []Reservation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Reservation, 0, len(s.byID))
	for _, r := range s.byID {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of live reservations.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Version reports the capacity-request log length: a monotone counter that
// identifies a point in the store's history, so ChangesSince can answer
// "what was asked for since then".
func (s *Store) Version() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.log)
}

// ChangesSince returns a copy of the capacity requests logged after version
// since (a previous Version result). An out-of-range since returns the whole
// log — the conservative "everything changed" answer.
func (s *Store) ChangesSince(since int) []Request {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if since < 0 || since > len(s.log) {
		since = 0
	}
	return append([]Request(nil), s.log[since:]...)
}
