package governor

import (
	"context"
	"testing"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/obs"
	"gpudvfs/internal/workloads"
)

// Sequence is the loop's canonical stream implementation; assert the
// contract here (workloads cannot import governor without a cycle).
var _ WorkloadStream = (*workloads.Sequence)(nil)

// TestRunMatchesTuneOnHomogeneousStream is the tentpole's bit-identity
// pin: on a stream of identical executions, the streaming loop's initial
// tune is byte-for-byte the one-shot Tune — same profiling seed schedule,
// same prediction path, same selection — and nothing in the stream
// triggers a re-tune.
func TestRunMatchesTuneOnHomogeneousStream(t *testing.T) {
	m := quickModels(t)
	oneShot, err := New(sim.New(sim.GA100(), 11), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := oneShot.Tune(workloads.DGEMM())
	if err != nil {
		t.Fatal(err)
	}

	loop, err := New(sim.New(sim.GA100(), 11), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	items := make([]backend.Workload, n)
	for i := range items {
		items[i] = workloads.DGEMM()
	}
	rep, err := loop.Run(context.Background(), workloads.NewSequence(items...))
	if err != nil {
		t.Fatal(err)
	}
	if loop.Selection() != want {
		t.Fatalf("loop selection %+v, one-shot %+v", loop.Selection(), want)
	}
	if rep.Runs != n || rep.TunedRuns != 1 {
		t.Fatalf("runs=%d tuned=%d, want %d/1", rep.Runs, rep.TunedRuns, n)
	}
	if rep.Retunes != 0 || rep.PhaseShifts != 0 {
		t.Fatalf("homogeneous stream retuned: %+v", rep)
	}
	if loop.Stats().Tunes != 1 {
		t.Fatalf("tunes = %d", loop.Stats().Tunes)
	}
	if rep.EnergyJoules <= 0 || rep.TimeSeconds <= 0 {
		t.Fatalf("empty ledger: %+v", rep)
	}
}

// TestRunRetunesOnPhaseShift drives the loop over an alternating
// compute/memory stream: the online detector flags the character change
// at each phase boundary (the telemetry stream is continuous across
// runs), the governor re-profiles, and the governed clock follows the
// phase. The same stream under an effectively infinite cooldown is the
// one-shot governor, which must spend more energy: it keeps the
// compute-phase clock through every memory phase.
func TestRunRetunesOnPhaseShift(t *testing.T) {
	m := quickModels(t)
	const period, total = 4, 16

	streaming, err := New(sim.New(sim.GA100(), 12), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := streaming.Run(context.Background(), workloads.PhaseShifting(period, total))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != total {
		t.Fatalf("runs = %d, want %d", rep.Runs, total)
	}
	if rep.PhaseShifts < 2 {
		t.Fatalf("detector flagged %d shifts on a 4-phase stream", rep.PhaseShifts)
	}
	if rep.Retunes < 2 {
		t.Fatalf("governor retuned %d times on a 4-phase stream", rep.Retunes)
	}
	if got := streaming.Stats().PhaseShifts; got != rep.PhaseShifts {
		t.Fatalf("stats shifts %d != report %d", got, rep.PhaseShifts)
	}

	cfg := DefaultConfig()
	cfg.RetuneCooldown = total + 1 // cooldown outlives the stream: one-shot
	oneShot, err := New(sim.New(sim.GA100(), 12), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneRep, err := oneShot.Run(context.Background(), workloads.PhaseShifting(period, total))
	if err != nil {
		t.Fatal(err)
	}
	if oneRep.Retunes != 0 {
		t.Fatalf("cooldown failed to suppress retunes: %+v", oneRep)
	}
	if rep.EnergyJoules >= oneRep.EnergyJoules {
		t.Fatalf("streaming energy %.1f J not below one-shot %.1f J",
			rep.EnergyJoules, oneRep.EnergyJoules)
	}
}

// TestRunMultiTenantStaysCalm: run-to-run interference wobble around one
// base profile must not thrash the governor — the hysteresis plus
// cooldown keep re-tunes far below the run count.
func TestRunMultiTenantStaysCalm(t *testing.T) {
	g, err := New(sim.New(sim.GA100(), 13), quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const total = 12
	rep, err := g.Run(context.Background(), workloads.MultiTenant(workloads.LAMMPS(), total, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != total {
		t.Fatalf("runs = %d", rep.Runs)
	}
	if rep.Retunes > total/3 {
		t.Fatalf("interference thrashed the governor: %d retunes in %d runs", rep.Retunes, total)
	}
}

// TestRunMetrics wires a Metrics bundle through a shifting stream and
// checks the counters track the report.
func TestRunMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(reg)
	g, err := New(sim.New(sim.GA100(), 15), quickModels(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), workloads.PhaseShifting(4, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got := int(cfg.Metrics.GovernedRuns.Value()); got != rep.Runs-rep.TunedRuns {
		t.Fatalf("governed counter %d, report %d", got, rep.Runs-rep.TunedRuns)
	}
	if got := int(cfg.Metrics.Retunes.Value()); got != rep.Retunes {
		t.Fatalf("retune counter %d, report %d", got, rep.Retunes)
	}
	if got := int(cfg.Metrics.PhaseShifts.Value()); got != rep.PhaseShifts {
		t.Fatalf("shift counter %d, report %d", got, rep.PhaseShifts)
	}
	if int(cfg.Metrics.TuneSeconds.Count()) != g.Stats().Tunes {
		t.Fatalf("tune histogram %d observations, %d tunes",
			cfg.Metrics.TuneSeconds.Count(), g.Stats().Tunes)
	}
}

func TestRunContextCancelled(t *testing.T) {
	g, err := New(sim.New(sim.GA100(), 16), quickModels(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Run(ctx, workloads.PhaseShifting(2, 4)); err == nil {
		t.Fatal("cancelled context not surfaced")
	}
}

func TestStreamingConfigValidation(t *testing.T) {
	m := quickModels(t)
	dev := sim.New(sim.GA100(), 17)
	for _, cfg := range []Config{
		{Objective: objective.EDP{}, PhaseWindow: 1},
		{Objective: objective.EDP{}, RetuneCooldown: -1},
		{Objective: objective.EDP{}, FuseStatic: 1.0},
		{Objective: objective.EDP{}, FuseStatic: -0.1},
	} {
		if _, err := New(dev, m, cfg); err == nil {
			t.Fatalf("Config %+v accepted", cfg)
		}
	}
}

// TestDriftHysteresisTable is the satellite's table over the hysteresis
// boundary: exactly ReprofileAfter consecutive drifted observations
// demand a re-tune; any clean observation resets the count, so transient
// spikes never accumulate.
func TestDriftHysteresisTable(t *testing.T) {
	cases := []struct {
		name     string
		after    int
		seq      []bool // drift verdict per observation
		demandAt int    // index of first demand, -1 for never
	}{
		{"exactly at boundary", 3, []bool{true, true, true}, 2},
		{"one below boundary", 3, []bool{true, true, false, true, true}, -1},
		{"reset then full streak", 3, []bool{true, true, false, true, true, true}, 5},
		{"transient spikes suppressed", 2, []bool{true, false, true, false, true, false}, -1},
		{"immediate with hysteresis 1", 1, []bool{false, false, true}, 2},
		{"streak past boundary keeps demanding", 2, []bool{true, true, true}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &Governor{cfg: Config{ReprofileAfter: tc.after}}
			got := -1
			for i, d := range tc.seq {
				if g.noteDrift(d) && got == -1 {
					got = i
				}
			}
			if got != tc.demandAt {
				t.Fatalf("first demand at %d, want %d", got, tc.demandAt)
			}
			want := 0
			for _, d := range tc.seq {
				if d {
					want++
				}
			}
			if g.stats.DriftedRuns != want {
				t.Fatalf("drifted runs %d, want %d", g.stats.DriftedRuns, want)
			}
		})
	}
}

// TestDriftedFeaturesBoundary pins the tolerance arithmetic on both sides
// of the threshold, including the absolute floor for near-idle activity.
func TestDriftedFeaturesBoundary(t *testing.T) {
	g := &Governor{cfg: Config{DriftTolerance: 0.25}}
	g.baseline.FP64Active = 0.8 // FPActive 0.8
	g.baseline.DRAMActive = 0.4
	cases := []struct {
		name     string
		fp, dram float64
		want     bool
	}{
		{"inside tolerance", 0.8 * 1.24, 0.4, false},
		{"fp over tolerance", 0.8 * 1.26, 0.4, true},
		{"dram over tolerance", 0.8, 0.4 * 0.74, true},
		{"both at baseline", 0.8, 0.4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.driftedFeatures(tc.fp, tc.dram); got != tc.want {
				t.Fatalf("driftedFeatures(%v, %v) = %v", tc.fp, tc.dram, got)
			}
		})
	}
	// Near-idle pipes compare on the absolute eps scale: a 0.05→0.08 move
	// is wobble, not drift, even though it is 60% in relative terms.
	idle := &Governor{cfg: Config{DriftTolerance: 0.25}}
	idle.baseline.FP64Active = 0.05
	idle.baseline.DRAMActive = 0.05
	if idle.driftedFeatures(0.08, 0.05) {
		t.Fatal("near-idle wobble flagged as drift")
	}
}
