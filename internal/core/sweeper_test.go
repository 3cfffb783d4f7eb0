package core

import (
	"runtime"
	"slices"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

// sweepRuns returns n profiling runs cycling through three workload
// characters, each with its own collector seed.
func sweepRuns(t *testing.T, n int) []dcgm.Run {
	t.Helper()
	kinds := []sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), workloads.LAMMPS()}
	runs := make([]dcgm.Run, n)
	for i := range runs {
		runs[i] = serveRun(t, int64(90+i), kinds[i%len(kinds)])
	}
	return runs
}

// profileBufs returns n profile buffers of the sweeper's grid size.
func profileBufs(sw *Sweeper, n int) [][]objective.Profile {
	dsts := make([][]objective.Profile, n)
	for i := range dsts {
		dsts[i] = make([]objective.Profile, sw.GridSize())
	}
	return dsts
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1)
// override: work that fans out only when there is more than one P, such as
// a row-parallel kernel, is counted at the process's own GOMAXPROCS. Like
// AllocsPerRun it warms up with one call and rounds the mean down.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestSweeperZeroAlloc pins the miss path's 0-alloc contract at any
// GOMAXPROCS: single and batched sweeps over the 1-D line, the 2-D grid
// with a memory-feature model, and the 2-D grid with a core-only model.
func TestSweeperZeroAlloc(t *testing.T) {
	arch := sim.GA100().Spec()
	cases := []struct {
		name     string
		m        *Models
		memFreqs []float64
	}{
		{"1d", serveModels(t), nil},
		{"2d-mem-model", gridModels(t), arch.MemClocks()},
		{"2d-core-model", serveModels(t), arch.MemClocks()},
	}
	runs := sweepRuns(t, 4)
	for _, c := range cases {
		sw, err := c.m.NewSweeper(arch, arch.DesignClocks(), c.memFreqs)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]objective.Profile, sw.GridSize())
		allocs := allocsPerRun(100, func() {
			if _, err := sw.PredictProfileInto(dst, runs[0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: PredictProfileInto allocates %v/op, want 0", c.name, allocs)
		}
		for _, batch := range []int{1, 4} {
			dsts := profileBufs(sw, batch)
			clamped := make([]Clamps, batch)
			allocs := allocsPerRun(100, func() {
				if err := sw.PredictProfilesInto(dsts, clamped, runs[:batch]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 && !raceEnabled {
				t.Errorf("%s: PredictProfilesInto at batch %d allocates %v/op, want 0", c.name, batch, allocs)
			}
		}
	}
}

// TestGridSweepCoreOnlyModel pins the distinct-rows sweep: a model without
// mem_app_clock on GA100's 3-state memory ladder infers one row per core
// clock, yet every profile and per-axis clamp count must equal naiveSweep's
// full-row rebuild of all 183 grid points, for single calls and fused
// batches alike. The zeroed pair clamps every point, so the Core/Mem split
// is exercised on every row.
func TestGridSweepCoreOnlyModel(t *testing.T) {
	arch := sim.GA100().Spec()
	freqs, mems := arch.DesignClocks(), arch.MemClocks()
	zeroed := serveModels(t)
	zeroWeights(zeroed.Power)
	zeroWeights(zeroed.Time)
	runs := sweepRuns(t, 8)
	for name, m := range map[string]*Models{"random": serveModels(t), "zeroed": zeroed} {
		if !slices.Equal(m.Features, dataset.PaperFeatures) {
			t.Fatalf("%s: features %v, want the paper's %v", name, m.Features, dataset.PaperFeatures)
		}
		sw, err := m.NewSweeper(arch, freqs, mems)
		if err != nil {
			t.Fatal(err)
		}
		wantP := profileBufs(sw, len(runs))
		wantC := make([]Clamps, len(runs))
		for i, r := range runs {
			if wantC[i], err = naiveSweep(m, arch, r, freqs, mems, wantP[i]); err != nil {
				t.Fatal(err)
			}
			got := make([]objective.Profile, sw.GridSize())
			cl, err := sw.PredictProfileInto(got, r)
			if err != nil {
				t.Fatal(err)
			}
			if !gridProfilesIdentical(got, wantP[i]) || cl != wantC[i] {
				t.Fatalf("%s run %d: single sweep (clamps %+v) differs from naiveSweep (clamps %+v)", name, i, cl, wantC[i])
			}
		}
		if name == "zeroed" && (wantC[0].Core != 2*len(freqs) || wantC[0].Mem != 2*len(freqs)*(len(mems)-1)) {
			t.Fatalf("zeroed models clamp %+v, want every point on both floors", wantC[0])
		}
		for _, batch := range []int{1, 3, 8} {
			gotP := profileBufs(sw, batch)
			gotC := make([]Clamps, batch)
			if err := sw.PredictProfilesInto(gotP, gotC, runs[:batch]); err != nil {
				t.Fatal(err)
			}
			for i := range gotP {
				if !gridProfilesIdentical(gotP[i], wantP[i]) || gotC[i] != wantC[i] {
					t.Fatalf("%s batch %d run %d: fused sweep differs from naiveSweep", name, batch, i)
				}
			}
		}
	}
}

// TestPredictProfileIntoMatchesBatchOfN pins the one sweep path from the
// batch side: every run swept alone through PredictProfileInto yields
// exactly its slice of one fused PredictProfilesInto call over N runs —
// profiles bit for bit, clamps count for count. Single sweeps run both
// on a fresh sweeper (workspaces born at batch size 1) and on the fused
// call's sweeper after a larger batch grew its pooled workspaces, over
// the 1-D line, the 2-D grid with a memory-feature model, and the 2-D
// grid with a core-only model.
func TestPredictProfileIntoMatchesBatchOfN(t *testing.T) {
	arch := sim.GA100().Spec()
	cases := []struct {
		name     string
		m        *Models
		memFreqs []float64
	}{
		{"1-D", serveModels(t), nil},
		{"2-D mem model", gridModels(t), arch.MemClocks()},
		{"2-D core-only model", serveModels(t), arch.MemClocks()},
	}
	runs := sweepRuns(t, 7)
	for i := range runs {
		runs[i].ExecTimeSec *= 1 + 0.1*float64(i) // distinct per-run time scales
	}
	for _, c := range cases {
		fused, err := c.m.NewSweeper(arch, arch.DesignClocks(), c.memFreqs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.m.NewSweeper(arch, arch.DesignClocks(), c.memFreqs)
		if err != nil {
			t.Fatal(err)
		}
		want := profileBufs(fused, len(runs))
		wantC := make([]Clamps, len(runs))
		if err := fused.PredictProfilesInto(want, wantC, runs); err != nil {
			t.Fatal(err)
		}
		for _, sw := range []*Sweeper{fresh, fused} {
			for i, r := range runs {
				got := make([]objective.Profile, sw.GridSize())
				gotC, err := sw.PredictProfileInto(got, r)
				if err != nil {
					t.Fatal(err)
				}
				if !gridProfilesIdentical(got, want[i]) {
					t.Fatalf("%s: run %d swept alone diverges from its slice of the batch of %d", c.name, i, len(runs))
				}
				if gotC != wantC[i] {
					t.Fatalf("%s: run %d clamps %+v alone, %+v in the batch", c.name, i, gotC, wantC[i])
				}
			}
		}
	}
}
