package core

import (
	"sync"
	"sync/atomic"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

// TestPlanCacheHitPathZeroAlloc pins the hit path's allocation count at
// zero: after the first miss populates a bucket, repeated Selects for the
// same workload character must not touch the heap. This is the property the
// fleet simulator's event loop depends on for its 0 allocs/op bar.
func TestPlanCacheHitPathZeroAlloc(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPlanCache(sw, PlanCacheConfig{
		Objective: objective.EDP{},
		Threshold: -1,
		Derive: func(profiles []objective.Profile, sel Selection) any {
			return len(profiles)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := serveRun(t, 11, workloads.DGEMM())
	if _, _, err := pc.Select(run); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := pc.SelectDerived(run); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pc.Select(run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("plan-cache hit path allocates: %v allocs/op, want 0", allocs)
	}
}

// TestPlanCacheDerivePayload checks the Derive contract: computed exactly
// once per bucket (on the miss, after selection succeeds), the identical
// payload returned on every subsequent hit, and nil when Derive is unset.
func TestPlanCacheDerivePayload(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks())
	if err != nil {
		t.Fatal(err)
	}

	type payload struct {
		n   int
		sel Selection
	}
	var calls atomic.Int64
	pc, err := NewPlanCache(sw, PlanCacheConfig{
		Objective: objective.EDP{},
		Threshold: -1,
		Derive: func(profiles []objective.Profile, sel Selection) any {
			calls.Add(1)
			return &payload{n: len(profiles), sel: sel}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	run := serveRun(t, 21, workloads.DGEMM())
	sel0, d0, hit, err := pc.SelectDerived(run)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first SelectDerived reported a hit")
	}
	p0, ok := d0.(*payload)
	if !ok {
		t.Fatalf("derived payload has type %T, want *payload", d0)
	}
	if p0.n != sw.GridSize() {
		t.Fatalf("Derive saw %d profiles, want grid size %d", p0.n, sw.GridSize())
	}
	if p0.sel != sel0 {
		t.Fatalf("Derive saw selection %+v, SelectDerived returned %+v", p0.sel, sel0)
	}

	// Hits — including concurrent ones — return the same pointer without
	// re-invoking Derive.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				sel, d, hit, err := pc.SelectDerived(run)
				if err != nil {
					t.Error(err)
					return
				}
				if !hit {
					t.Error("repeat SelectDerived missed")
					return
				}
				if d != d0 {
					t.Errorf("hit returned payload %p, want the memoized %p", d, d0)
					return
				}
				if sel != sel0 {
					t.Errorf("hit selection %+v != miss selection %+v", sel, sel0)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("Derive ran %d times for one bucket, want 1", n)
	}

	// A distinct workload character gets its own payload.
	run2 := serveRun(t, 22, workloads.STREAM())
	_, d2, _, err := pc.SelectDerived(run2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d0 {
		t.Fatal("distinct buckets share one Derive payload")
	}

	// Without Derive, the payload is nil and selections are unchanged.
	plain, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	selP, dP, _, err := plain.SelectDerived(run)
	if err != nil {
		t.Fatal(err)
	}
	if dP != nil {
		t.Fatalf("Derive unset but payload %v returned", dP)
	}
	if selP != sel0 {
		t.Fatalf("selection drifted without Derive: %+v vs %+v", selP, sel0)
	}
}
