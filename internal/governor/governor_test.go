package governor

import (
	"context"
	"sync"
	"testing"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

// Shared quick models for the governor tests (training once per process).
var (
	modelsOnce sync.Once
	testModels *core.Models
	modelsErr  error
)

func quickModels(t testing.TB) *core.Models {
	t.Helper()
	modelsOnce.Do(func() {
		dev := sim.New(sim.GA100(), 51)
		coll := dcgm.NewCollector(dev, dcgm.Config{
			Freqs:            []float64{510, 705, 900, 1095, 1290, 1410},
			Runs:             2,
			MaxSamplesPerRun: 6,
			Seed:             52,
		})
		nw, err := workloads.ByName("NW")
		if err != nil {
			modelsErr = err
			return
		}
		runs, err := coll.CollectAll(backend.Workloads([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), nw}))
		if err != nil {
			modelsErr = err
			return
		}
		ds, err := dataset.Build(sim.GA100().Spec(), runs, dataset.Options{})
		if err != nil {
			modelsErr = err
			return
		}
		sds, err := dataset.Build(sim.GA100().Spec(), runs, dataset.Options{PerSample: true})
		if err != nil {
			modelsErr = err
			return
		}
		testModels, modelsErr = core.TrainSplit(sds, ds, core.TrainOptions{
			PowerEpochs: 30, TimeEpochs: 15, Hidden: []int{24, 24}, Seed: 1,
		})
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return testModels
}

func TestNewValidation(t *testing.T) {
	dev := sim.New(sim.GA100(), 1)
	m := quickModels(t)
	if _, err := New(nil, m, DefaultConfig()); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := New(dev, nil, DefaultConfig()); err == nil {
		t.Fatal("nil models accepted")
	}
	if _, err := New(dev, m, Config{}); err == nil {
		t.Fatal("missing objective accepted")
	}
	if _, err := New(dev, m, Config{Objective: objective.EDP{}, DriftTolerance: 1.5}); err == nil {
		t.Fatal("tolerance > 1 accepted")
	}
	if _, err := New(dev, m, Config{Objective: objective.EDP{}, ReprofileAfter: -1}); err == nil {
		t.Fatal("negative hysteresis accepted")
	}
}

func TestTuneAppliesClock(t *testing.T) {
	dev := sim.New(sim.GA100(), 2)
	g, err := New(dev, quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := g.Tune(workloads.LAMMPS())
	if err != nil {
		t.Fatal(err)
	}
	if dev.Clock() != sel.FreqMHz {
		t.Fatalf("device at %v MHz, selection %v", dev.Clock(), sel.FreqMHz)
	}
	if !sim.GA100().IsSupported(sel.FreqMHz) {
		t.Fatalf("selected unsupported clock %v", sel.FreqMHz)
	}
	if g.Stats().Tunes != 1 {
		t.Fatalf("tunes = %d", g.Stats().Tunes)
	}
}

// runEach drives g.Run over apps one item at a time and returns each
// item's report; governor state persists between the calls.
func runEach(t *testing.T, g *Governor, apps ...backend.Workload) []RunReport {
	t.Helper()
	reps := make([]RunReport, len(apps))
	for i, app := range apps {
		rep, err := g.Run(context.Background(), workloads.NewSequence(app))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

func repeat(app backend.Workload, n int) []backend.Workload {
	items := make([]backend.Workload, n)
	for i := range items {
		items[i] = app
	}
	return items
}

func TestStableWorkloadDoesNotRetune(t *testing.T) {
	dev := sim.New(sim.GA100(), 3)
	g, err := New(dev, quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app := workloads.LAMMPS()
	if _, err := g.Tune(app); err != nil {
		t.Fatal(err)
	}
	for i, rep := range runEach(t, g, repeat(app, 8)...) {
		if rep.Retunes != 0 || rep.TunedRuns != 0 {
			t.Fatalf("run %d retuned on a stable workload: %+v", i, rep)
		}
	}
	if g.Stats().Retunes != 0 {
		t.Fatalf("retunes = %d", g.Stats().Retunes)
	}
}

// TestInputSizeChangeDoesNotRetune pins the paper's size-invariance claim
// at the governor level (§4.2.3): a 2× or 4× larger input is not drift.
func TestInputSizeChangeDoesNotRetune(t *testing.T) {
	dev := sim.New(sim.GA100(), 4)
	g, err := New(dev, quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app := workloads.STREAM()
	if _, err := g.Tune(app); err != nil {
		t.Fatal(err)
	}
	var items []backend.Workload
	for _, scale := range []float64{2, 4} {
		bigger, err := app.WithInputScale(scale)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, repeat(bigger, 4)...)
	}
	for i, rep := range runEach(t, g, items...) {
		if rep.Retunes != 0 || rep.TunedRuns != 0 {
			t.Fatalf("run %d retuned on an input-size change: %+v", i, rep)
		}
	}
}

// TestCharacterChangeRetunes pins the governor's purpose: swapping a
// compute-bound phase for a memory-bound one is drift and triggers a
// re-tune after the hysteresis window. The re-profile executes the item
// after the one that completed the hysteresis.
func TestCharacterChangeRetunes(t *testing.T) {
	dev := sim.New(sim.GA100(), 5)
	cfg := DefaultConfig()
	cfg.ReprofileAfter = 2
	g, err := New(dev, quickModels(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Tune(workloads.DGEMM()); err != nil {
		t.Fatal(err)
	}
	retunedAt := -1
	for i, rep := range runEach(t, g, repeat(workloads.STREAM(), 5)...) {
		if retunedAt < 0 && rep.Retunes == 0 && rep.DriftedRuns != 1 {
			t.Fatalf("run %d: memory-bound phase not flagged as drift: %+v", i, rep)
		}
		if rep.Retunes == 1 && rep.TunedRuns == 1 && retunedAt < 0 {
			retunedAt = i
		}
		if retunedAt >= 0 && i > retunedAt && (rep.DriftedRuns != 0 || rep.Retunes != 0) {
			t.Fatalf("run %d drifted off the re-tuned baseline: %+v", i, rep)
		}
	}
	if retunedAt != 2 { // hysteresis 2 → the third run re-profiles
		t.Fatalf("retuned at run %d, want 2", retunedAt)
	}
	if g.Stats().Retunes != 1 || g.Stats().Tunes != 2 {
		t.Fatalf("stats = %+v", g.Stats())
	}
}

// TestRunAutoTunes: an untuned governor's first item is its profiling run
// at the maximum clock, and the device ends pinned to the selection.
func TestRunAutoTunes(t *testing.T) {
	dev := sim.New(sim.GA100(), 6)
	g, err := New(dev, quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := runEach(t, g, workloads.NAMD())[0]
	if g.Stats().Tunes != 1 || rep.TunedRuns != 1 || rep.Runs != 1 {
		t.Fatalf("Run did not auto-tune: %+v", rep)
	}
	if rep.TimeSeconds <= 0 || rep.EnergyJoules <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if dev.Clock() != g.Selection().FreqMHz {
		t.Fatalf("device at %v MHz, selection %v", dev.Clock(), g.Selection().FreqMHz)
	}
}

// TestStatsAccumulate: the governor's counters split the per-item reports
// into profiling and governed ledgers, and one Run over a whole sequence
// accounts exactly what per-item Run calls do.
func TestStatsAccumulate(t *testing.T) {
	app := workloads.BERT()
	g, err := New(sim.New(sim.GA100(), 7), quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reps := runEach(t, g, repeat(app, 3)...)
	s := g.Stats()
	if s.Runs != 2 || s.Tunes != 1 {
		t.Fatalf("governed runs = %d, tunes = %d, want 2 and 1", s.Runs, s.Tunes)
	}
	if s.ProfileEnergyJoules != reps[0].EnergyJoules {
		t.Fatalf("profile energy %v != %v", s.ProfileEnergyJoules, reps[0].EnergyJoules)
	}
	if want := reps[1].EnergyJoules + reps[2].EnergyJoules; s.EnergyJoules != want {
		t.Fatalf("energy %v != %v", s.EnergyJoules, want)
	}

	whole, err := New(sim.New(sim.GA100(), 7), quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := whole.Run(context.Background(), workloads.NewSequence(repeat(app, 3)...))
	if err != nil {
		t.Fatal(err)
	}
	if want := reps[0].EnergyJoules + reps[1].EnergyJoules + reps[2].EnergyJoules; rep.EnergyJoules != want || rep.Runs != 3 {
		t.Fatalf("whole-stream report %+v, per-item energy %v", rep, want)
	}
	if whole.Stats() != s {
		t.Fatalf("whole-stream stats %+v != per-item stats %+v", whole.Stats(), s)
	}
}

func TestRelDiff(t *testing.T) {
	if relDiff(1, 1) != 0 {
		t.Fatal("equal values")
	}
	if got := relDiff(1.2, 1.0); got < 0.19 || got > 0.21 {
		t.Fatalf("relDiff(1.2,1) = %v", got)
	}
	// Absolute floor avoids divide-by-near-zero blowups.
	if got := relDiff(0.01, 0.001); got > 0.5 {
		t.Fatalf("near-zero diff exaggerated: %v", got)
	}
}

// TestTuneMatchesOnlinePredictSelection is the differential contract for
// the governor's sweeper-based serving path: Tune on one device must pick
// bit-for-bit the selection that the allocating OnlinePredict +
// SelectFrequency formulation picks on an identically seeded device.
func TestTuneMatchesOnlinePredictSelection(t *testing.T) {
	m := quickModels(t)
	cfg := Config{Objective: objective.ED2P{}, Threshold: -1, ProfileSeed: 90}

	devRef := sim.New(sim.GA100(), 91)
	on, err := core.OnlinePredict(devRef, m, workloads.LAMMPS(), dcgm.Config{Seed: cfg.ProfileSeed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SelectFrequency(on.Predicted, cfg.Objective, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}

	devGov := sim.New(sim.GA100(), 91)
	g, err := New(devGov, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Tune(workloads.LAMMPS())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("governor selection %+v diverged from OnlinePredict selection %+v", got, want)
	}
	if s := g.Stats(); s.Clamped != on.Clamped || s.ClampedCore != on.ClampedCore || s.ClampedMem != on.ClampedMem {
		t.Fatalf("governor clamps (%d core %d mem %d), OnlinePredict (%d core %d mem %d)",
			s.Clamped, s.ClampedCore, s.ClampedMem, on.Clamped, on.ClampedCore, on.ClampedMem)
	}
	// A core-only governor attributes every clamp to the core axis.
	if s := g.Stats(); s.ClampedMem != 0 || s.ClampedCore != s.Clamped {
		t.Fatalf("core-only governor has memory-axis clamps: %+v", s)
	}

	// Re-tunes accumulate the counter and keep matching (next tune uses the
	// advanced seed schedule, so compare against a fresh reference).
	on2, err := core.OnlinePredict(devRef, m, workloads.STREAM(), dcgm.Config{Seed: cfg.ProfileSeed + 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := core.SelectFrequency(on2.Predicted, cfg.Objective, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := g.Tune(workloads.STREAM())
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want2 {
		t.Fatalf("re-tune selection %+v diverged from reference %+v", got2, want2)
	}
	if s := g.Stats(); s.Clamped != on.Clamped+on2.Clamped || s.ClampedCore != s.Clamped || s.ClampedMem != 0 {
		t.Fatalf("clamp counters %+v, want %d total, all on the core axis", s, on.Clamped+on2.Clamped)
	}
}

// TestTuneGridMemAxis runs the governor over the full (core × mem) grid:
// the selection must match the OnlinePredict + SelectFrequency
// formulation bit-for-bit, the device must end up pinned to the selected
// memory P-state, and the clamp counters must carry the per-axis split.
func TestTuneGridMemAxis(t *testing.T) {
	m := quickModels(t)
	arch := sim.GA100().Spec()
	cfg := Config{Objective: objective.ED2P{}, Threshold: -1, ProfileSeed: 90, MemFreqs: arch.MemClocks()}

	devRef := sim.New(sim.GA100(), 91)
	on, err := core.OnlinePredict(devRef, m, workloads.LAMMPS(), dcgm.Config{Seed: cfg.ProfileSeed}, arch.MemClocks())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SelectFrequency(on.Predicted, cfg.Objective, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}

	devGov := sim.New(sim.GA100(), 91)
	g, err := New(devGov, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Tune(workloads.LAMMPS())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("grid governor selection %+v diverged from OnlinePredict selection %+v", got, want)
	}
	if got.MemFreqMHz == 0 {
		t.Fatal("grid selection carries no memory clock")
	}
	if devGov.MemClock() != got.MemFreqMHz {
		t.Fatalf("device memory clock %v, selection %v", devGov.MemClock(), got.MemFreqMHz)
	}
	s := g.Stats()
	if s.Clamped != s.ClampedCore+s.ClampedMem {
		t.Fatalf("clamp split %d core + %d mem does not sum to %d", s.ClampedCore, s.ClampedMem, s.Clamped)
	}
	if s.Clamped != on.Clamped || s.ClampedCore != on.ClampedCore || s.ClampedMem != on.ClampedMem {
		t.Fatalf("governor clamps (%d core %d mem %d), OnlinePredict (%d core %d mem %d)",
			s.Clamped, s.ClampedCore, s.ClampedMem, on.Clamped, on.ClampedCore, on.ClampedMem)
	}
}
