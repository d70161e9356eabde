package reservation

import (
	"errors"
	"sync"
	"testing"

	"ras/internal/hardware"
)

func TestStoreCreateGetDelete(t *testing.T) {
	s := NewStore()
	id, err := s.Create(Reservation{Name: "web", Class: hardware.Web, RRUs: 100, Policy: DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Get(id)
	if err != nil || r.Name != "web" || r.RRUs != 100 {
		t.Fatalf("Get: %+v, %v", r, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreResize(t *testing.T) {
	s := NewStore()
	id, _ := s.Create(Reservation{Name: "a", RRUs: 10, Policy: DefaultPolicy()})
	if err := s.Resize(id, 25); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get(id)
	if r.RRUs != 25 {
		t.Fatalf("RRUs = %v after resize", r.RRUs)
	}
	if err := s.Resize(id, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative resize: %v", err)
	}
	if err := s.Resize(999, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resize missing: %v", err)
	}
}

func TestStoreIDsIncrease(t *testing.T) {
	s := NewStore()
	a, _ := s.Create(Reservation{Name: "a", Policy: DefaultPolicy()})
	b, _ := s.Create(Reservation{Name: "b", Policy: DefaultPolicy()})
	if b <= a {
		t.Fatalf("IDs not increasing: %d then %d", a, b)
	}
	all := s.All()
	if len(all) != 2 || all[0].ID != a || all[1].ID != b {
		t.Fatalf("All() = %+v", all)
	}
}

func TestStoreLog(t *testing.T) {
	s := NewStore()
	id, _ := s.Create(Reservation{Name: "a", RRUs: 5, Policy: DefaultPolicy()})
	s.Resize(id, 7)
	s.Delete(id)
	log := s.ChangesSince(0)
	if len(log) != 3 {
		t.Fatalf("log has %d entries, want 3", len(log))
	}
	kinds := []RequestKind{Create, Resize, Delete}
	for i, k := range kinds {
		if log[i].Kind != k {
			t.Fatalf("log[%d].Kind = %v, want %v", i, log[i].Kind, k)
		}
	}
}

func TestValidation(t *testing.T) {
	cases := []Reservation{
		{Name: "neg", RRUs: -1, Policy: DefaultPolicy()},
		{Name: "spread", Policy: Policy{SpreadMSB: 1.5, SingleDC: -1}},
		{Name: "aff", Policy: Policy{DCAffinity: map[int]float64{0: 0.5, 1: 0.3}, SingleDC: -1}},
		{Name: "affneg", Policy: Policy{DCAffinity: map[int]float64{0: -0.1, 1: 1.1}, SingleDC: -1}},
	}
	for _, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: expected validation error", r.Name)
		}
	}
	ok := Reservation{Name: "ok", RRUs: 10,
		Policy: Policy{DCAffinity: map[int]float64{0: 0.6, 1: 0.4}, SingleDC: -1}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid reservation rejected: %v", err)
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(Reservation{Name: "bad", RRUs: -5}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Create invalid: %v", err)
	}
}

func TestEligible(t *testing.T) {
	r := Reservation{Name: "r"}
	if !r.Eligible(3, 1.5) {
		t.Error("empty EligibleTypes must accept any positive-RRU type")
	}
	if r.Eligible(3, 0) {
		t.Error("zero RRU must be ineligible")
	}
	r.EligibleTypes = []int{1, 2}
	if r.Eligible(3, 1.5) || !r.Eligible(2, 1.5) {
		t.Error("EligibleTypes filter broken")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				id, err := s.Create(Reservation{Name: "c", RRUs: 1, Policy: DefaultPolicy()})
				if err != nil {
					t.Error(err)
					return
				}
				s.Resize(id, 2)
				s.Get(id)
				s.All()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

func TestRequestKindString(t *testing.T) {
	for k, want := range map[RequestKind]string{Create: "create", Resize: "resize", Delete: "delete"} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
	if RequestKind(9).String() == "" {
		t.Error("unknown kind must stringify")
	}
}
