package governor

import (
	"sync"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/workloads"
)

// TestTuneConcurrentSharedSweeper pins the shared-sweeper concurrency
// contract: governors built over one *core.Models share a single memoized
// Sweeper (Models.GridSweeperFor), so concurrent Tune calls exercise the
// same pooled inference workspaces. Run under -race, every concurrent
// result must be bit-identical to a serial governor tuning the same
// workload on an identically seeded device.
func TestTuneConcurrentSharedSweeper(t *testing.T) {
	m := quickModels(t)
	cases := []struct {
		app  sim.KernelProfile
		seed int64
	}{
		{workloads.LAMMPS(), 101},
		{workloads.GROMACS(), 102},
		{workloads.DGEMM(), 103},
		{workloads.STREAM(), 104},
		{workloads.NAMD(), 105},
		{workloads.LAMMPS(), 106}, // same app, different telemetry seed
	}

	type outcome struct {
		sel   core.Selection
		stats Stats
	}
	tune := func(app sim.KernelProfile, seed int64) (outcome, error) {
		g, err := New(sim.New(sim.GA100(), seed), m, DefaultConfig())
		if err != nil {
			return outcome{}, err
		}
		sel, err := g.Tune(app)
		if err != nil {
			return outcome{}, err
		}
		return outcome{sel: sel, stats: g.Stats()}, nil
	}
	serial := make([]outcome, len(cases))
	for i, c := range cases {
		var err error
		if serial[i], err = tune(c.app, c.seed); err != nil {
			t.Fatal(err)
		}
	}

	// Several passes widen the interleaving space the race detector sees.
	for pass := 0; pass < 3; pass++ {
		got := make([]outcome, len(cases))
		errs := make([]error, len(cases))
		var wg sync.WaitGroup
		for i, c := range cases {
			wg.Add(1)
			go func(i int, app sim.KernelProfile, seed int64) {
				defer wg.Done()
				got[i], errs[i] = tune(app, seed)
			}(i, c.app, c.seed)
		}
		wg.Wait()
		for i := range cases {
			if errs[i] != nil {
				t.Fatalf("pass %d, tuner %d: %v", pass, i, errs[i])
			}
			if got[i] != serial[i] {
				t.Fatalf("pass %d, tuner %d (%s): concurrent %+v != serial %+v",
					pass, i, cases[i].app.WorkloadName(), got[i], serial[i])
			}
		}
	}
}
