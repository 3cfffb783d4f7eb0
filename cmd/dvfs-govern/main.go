// Command dvfs-govern runs the streaming governor over a workload stream
// and compares governing policies on the same executions: always-max (no
// DVFS), the paper's one-shot tune, the streaming governor that watches
// per-sample telemetry through an online change-point detector and
// re-runs the online phase mid-stream when the workload changes
// character, and the phase-memoizing streaming governor whose retunes
// first consult a cache of tuned phases — a recognized phase re-pins its
// memoized clocks with no profiling run at all.
//
// Every policy consumes an identical stream on an identically seeded
// device fork, so the energy/performance comparison isolates the policy.
// A (re-)tune's profiling run executes the stream item at the maximum
// clock — re-tuning costs clock headroom, never an extra execution — and
// every item is accounted exactly once in each arm's energy/time totals.
//
// Examples:
//
//	dvfs-govern -scenario phase-shift -runs 24 -period 4
//	dvfs-govern -scenario phase-cycle -runs 24 -period 2 -phase-cache 8
//	dvfs-govern -scenario multi-tenant -runs 24 -fuse-static 0.3
//	dvfs-govern -backend replay -trace trace.csv -scenario phase-shift -runs 16
//	dvfs-govern -models models/ -out BENCH_governor.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/backend/open"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/governor"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/obs"
	"gpudvfs/internal/workloads"
)

// config mirrors the command-line flags.
type config struct {
	modelsDir string
	device    open.Config
	seed      int64
	objective string
	threshold float64
	memFreqs  string

	scenario string
	runs     int
	period   int

	fuseStatic    float64
	fuseAdaptive  bool
	phaseWindow   int
	retuneCd      int
	driftTol      float64
	reprofAfter   int
	phaseCache    int
	phaseStale    int
	out           string
	renderMetrics bool
}

func main() {
	var (
		modelsDir   = flag.String("models", "", "directory with models saved by dvfs-train (empty = train quick models in-process, deterministic)")
		backendName = flag.String("backend", "sim", "device backend: sim or replay")
		archName    = flag.String("arch", "GA100", "target GPU architecture (sim backend)")
		trace       = flag.String("trace", "", "CSV recording with full-sweep profiles (replay backend)")
		compression = flag.Float64("time-compression", 0, "replay pacing: recorded-time divisor (0 = serve instantly)")
		seed        = flag.Int64("seed", 11, "base seed for profiling and telemetry noise")
		objName     = flag.String("objective", "edp", "selection objective: edp or ed2p")
		threshold   = flag.Float64("threshold", -1, "max slowdown fraction (e.g. 0.05); negative = unconstrained")
		memFreqs    = flag.String("mem-freqs", "", `memory P-states swept alongside core clocks: "all", or a comma-separated MHz list; empty governs the core axis only`)
		scenario    = flag.String("scenario", "phase-shift", "workload stream: phase-shift, phase-cycle, or multi-tenant")
		runs        = flag.Int("runs", 24, "total workload executions in the stream")
		period      = flag.Int("period", 4, "executions per phase in the phase-shift/phase-cycle scenarios")
		fuseStatic  = flag.Float64("fuse-static", 0, "static-trait fusion weight in [0,1); 0 disables fusion")
		fuseAdapt   = flag.Bool("fuse-adaptive", false, "derive the fusion weight from telemetry noise, with -fuse-static as the ceiling")
		phaseCache  = flag.Int("phase-cache", 8, "memoized phases in the streaming+memo arm; 0 drops the arm")
		phaseStale  = flag.Int("phase-stale", 0, "governed runs before a memoized phase goes stale (0 = never)")
		phaseWindow = flag.Int("phase-window", 8, "online change-point detector half-window in samples")
		retuneCd    = flag.Int("retune-cooldown", 1, "minimum governed runs between re-tunes")
		driftTol    = flag.Float64("drift-tolerance", 0, "relative feature drift that counts toward re-tuning (0 = default 0.25)")
		reprofAfter = flag.Int("reprofile-after", 0, "consecutive drifted runs before a re-tune (0 = default 3)")
		out         = flag.String("out", "", "write the policy comparison as JSON to this path")
		metrics     = flag.Bool("metrics", false, "render the streaming arm's Prometheus metrics after the run")
	)
	flag.Parse()

	cfg := config{
		modelsDir: *modelsDir,
		device:    open.Config{Backend: *backendName, Arch: *archName, Seed: *seed, Trace: *trace, TimeCompression: *compression},
		seed:      *seed,
		objective: *objName,
		threshold: *threshold,
		memFreqs:  *memFreqs,

		scenario: *scenario,
		runs:     *runs,
		period:   *period,

		fuseStatic:    *fuseStatic,
		fuseAdaptive:  *fuseAdapt,
		phaseWindow:   *phaseWindow,
		retuneCd:      *retuneCd,
		driftTol:      *driftTol,
		reprofAfter:   *reprofAfter,
		phaseCache:    *phaseCache,
		phaseStale:    *phaseStale,
		out:           *out,
		renderMetrics: *metrics,
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dvfs-govern:", err)
		os.Exit(1)
	}
}

// armResult is one policy's ledger over the shared stream.
type armResult struct {
	Policy       string  `json:"policy"`
	EnergyJoules float64 `json:"energy_joules"`
	TimeSeconds  float64 `json:"time_seconds"`
	Runs         int     `json:"runs"`
	TunedRuns    int     `json:"tuned_runs,omitempty"`
	Retunes      int     `json:"retunes,omitempty"`
	RePins       int     `json:"re_pins,omitempty"`
	DriftRetunes int     `json:"drift_retunes,omitempty"`
	ShiftRetunes int     `json:"shift_retunes,omitempty"`
	PhaseShifts  int     `json:"phase_shifts,omitempty"`
	DriftedRuns  int     `json:"drifted_runs,omitempty"`
	Phases       int     `json:"phases,omitempty"` // memoized phases at stream end
	FinalFreqMHz float64 `json:"final_freq_mhz,omitempty"`
}

// report is the JSON document written by -out.
type report struct {
	Scenario  string  `json:"scenario"`
	Backend   string  `json:"backend"`
	Arch      string  `json:"arch"`
	Runs      int     `json:"runs"`
	Period    int     `json:"period,omitempty"`
	Objective string  `json:"objective"`
	Threshold float64 `json:"threshold"`
	Seed      int64   `json:"seed"`

	FuseStatic     float64 `json:"fuse_static"`
	FuseAdaptive   bool    `json:"fuse_adaptive,omitempty"`
	PhaseWindow    int     `json:"phase_window"`
	RetuneCooldown int     `json:"retune_cooldown"`
	PhaseCache     int     `json:"phase_cache,omitempty"`
	PhaseStale     int     `json:"phase_stale,omitempty"`

	Arms []armResult `json:"arms"`

	// Headline ratios for the streaming arm (energy < 1 is a win; perf
	// loss > 0 is the price paid in wall-clock).
	StreamingEnergyVsAlwaysMax float64 `json:"streaming_energy_vs_always_max"`
	StreamingEnergyVsOneShot   float64 `json:"streaming_energy_vs_one_shot"`
	StreamingPerfLossVsOneShot float64 `json:"streaming_perf_loss_vs_one_shot"`

	// Headline numbers for the memoized arm: retunes recovered from the
	// cache, profiling runs still paid after every phase had been seen
	// once (0 = perfect recall), the re-pin fast path's measured
	// allocations, and its cost against the plain streaming arm.
	MemoRePins               int     `json:"memo_re_pins,omitempty"`
	MemoReprofilesAfterFirst int     `json:"memo_reprofiles_after_first_visit"`
	MemoRePinAllocsPerOp     float64 `json:"re_pin_allocs_per_op"`
	MemoEnergyVsStreaming    float64 `json:"memo_energy_vs_streaming,omitempty"`
	MemoTimeVsStreaming      float64 `json:"memo_time_vs_streaming,omitempty"`
	MemoEnergyVsAlwaysMax    float64 `json:"memo_energy_vs_always_max,omitempty"`
}

// trainQuick trains small paper-shaped models in-process when no saved
// models are given: a fixed-seed sim collection over the two
// micro-benchmarks plus one SPEC kernel, then a short TrainSplit. Fully
// deterministic, a few hundred milliseconds.
func trainQuick(archName string) (*core.Models, error) {
	dev, err := sim.NewByName(archName, 51)
	if err != nil {
		return nil, err
	}
	nw, err := workloads.ByName("NW")
	if err != nil {
		return nil, err
	}
	coll := dcgm.NewCollector(dev, dcgm.Config{Runs: 2, MaxSamplesPerRun: 8, Seed: 52})
	runs, err := coll.CollectAll(backend.Workloads([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), nw}))
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Build(dev.Arch(), runs, dataset.Options{})
	if err != nil {
		return nil, err
	}
	sds, err := dataset.Build(dev.Arch(), runs, dataset.Options{PerSample: true})
	if err != nil {
		return nil, err
	}
	return core.TrainSplit(sds, ds, core.TrainOptions{
		PowerEpochs: 30, TimeEpochs: 15, Hidden: []int{24, 24}, Seed: 1,
	})
}

// buildStream materializes the scenario as a workload sequence for one
// arm. Each call returns a fresh sequence so every policy consumes the
// identical stream.
func buildStream(dev backend.Device, cfg config) (*workloads.Sequence, error) {
	switch cfg.scenario {
	case "phase-shift":
		if named, ok := dev.(interface{ Workloads() []string }); ok {
			recorded := named.Workloads()
			if len(recorded) < 2 {
				return nil, fmt.Errorf("phase-shift needs at least two recorded workloads, trace has %v", recorded)
			}
			names := make([]string, cfg.runs)
			for i := range names {
				names[i] = recorded[(i/cfg.period)%2]
			}
			return workloads.NamedStream(names, cfg.runs), nil
		}
		return workloads.PhaseShifting(cfg.period, cfg.runs), nil
	case "phase-cycle":
		if named, ok := dev.(interface{ Workloads() []string }); ok {
			recorded := named.Workloads()
			if len(recorded) < 2 {
				return nil, fmt.Errorf("phase-cycle needs at least two recorded workloads, trace has %v", recorded)
			}
			k := len(recorded)
			if k > 3 {
				k = 3
			}
			names := make([]string, cfg.runs)
			for i := range names {
				names[i] = recorded[(i/cfg.period)%k]
			}
			return workloads.NamedStream(names, cfg.runs), nil
		}
		return workloads.PhaseCycle([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), workloads.LAMMPS()}, cfg.period, cfg.runs), nil
	case "multi-tenant":
		if _, ok := dev.(interface{ Workloads() []string }); ok {
			return nil, fmt.Errorf("multi-tenant perturbs kernel profiles and needs the sim backend")
		}
		return workloads.MultiTenant(workloads.LAMMPS(), cfg.runs, cfg.seed), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (phase-shift, phase-cycle, multi-tenant)", cfg.scenario)
	}
}

// alwaysMax streams every item at the architecture's maximum clock — the
// no-DVFS baseline every saving is measured against.
func alwaysMax(dev backend.Device, cfg config) (armResult, error) {
	strm, err := dcgm.NewCollector(dev, dcgm.Config{Seed: cfg.seed + 1000}).Stream()
	if err != nil {
		return armResult{}, err
	}
	if err := dev.SetClock(dev.Arch().MaxFreqMHz); err != nil {
		return armResult{}, err
	}
	stream, err := buildStream(dev, cfg)
	if err != nil {
		return armResult{}, err
	}
	res := armResult{Policy: "always-max"}
	for i := 0; ; i++ {
		app, ok := stream.Next()
		if !ok {
			break
		}
		run, err := strm.Run(app, i, nil)
		if err != nil {
			return armResult{}, err
		}
		res.Runs++
		res.EnergyJoules += run.EnergyJoules
		res.TimeSeconds += run.ExecTimeSec
	}
	res.FinalFreqMHz = dev.Clock()
	return res, nil
}

// governed runs one governor policy over the shared stream and returns
// the governor alongside its ledger, so the memoized arm can be probed
// after the stream ends.
func governed(dev backend.Device, models *core.Models, cfg config, policy string, gcfg governor.Config) (armResult, *governor.Governor, error) {
	g, err := governor.New(dev, models, gcfg)
	if err != nil {
		return armResult{}, nil, err
	}
	stream, err := buildStream(dev, cfg)
	if err != nil {
		return armResult{}, nil, err
	}
	rep, err := g.Run(context.Background(), stream)
	if err != nil {
		return armResult{}, nil, err
	}
	return armResult{
		Policy:       policy,
		EnergyJoules: rep.EnergyJoules,
		TimeSeconds:  rep.TimeSeconds,
		Runs:         rep.Runs,
		TunedRuns:    rep.TunedRuns,
		Retunes:      rep.Retunes,
		RePins:       rep.RePins,
		DriftRetunes: rep.DriftRetunes,
		ShiftRetunes: rep.ShiftRetunes,
		PhaseShifts:  rep.PhaseShifts,
		DriftedRuns:  rep.DriftedRuns,
		Phases:       g.PhaseCache().Phases,
		FinalFreqMHz: g.Selection().FreqMHz,
	}, g, nil
}

// measureRePinAllocs re-pins a memoized phase repeatedly and reports the
// observed heap allocations per operation via the runtime's allocation
// counters — the CLI's in-process equivalent of the package benchmark's
// 0 allocs/op pin, recorded in the report so the contract is checked on
// every bench run, not only under `go test`.
//
// The counters are process-wide, so the single counted window opens on a
// quiet runtime, as testing.AllocsPerRun's does: GOMAXPROCS is 1 for the
// measurement, and after the forced GC a yield lets the background work
// that GC wakes (the unique package's map cleanup, the scavenger) run and
// allocate before the first counter read rather than inside the window.
// Every allocation made in the window is still counted.
func measureRePinAllocs(g *governor.Governor) (float64, error) {
	phases := g.Phases()
	if len(phases) == 0 {
		return 0, fmt.Errorf("no memoized phases to re-pin")
	}
	p := phases[0]
	// Warm the path once so lazy state is built before counting.
	if _, ok, err := g.TryRePin(p[0], p[1]); err != nil || !ok {
		return 0, fmt.Errorf("re-pin warm-up missed (ok=%v err=%v)", ok, err)
	}
	const iters = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.Gosched()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		if _, ok, err := g.TryRePin(p[0], p[1]); err != nil || !ok {
			return 0, fmt.Errorf("re-pin missed mid-measurement (ok=%v err=%v)", ok, err)
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / iters, nil
}

func run(cfg config, w io.Writer) error {
	if cfg.runs < 2 {
		return fmt.Errorf("-runs %d: need at least 2 executions", cfg.runs)
	}
	if cfg.period < 1 {
		return fmt.Errorf("-period %d: need at least 1", cfg.period)
	}
	if cfg.phaseCache < 0 {
		return fmt.Errorf("-phase-cache %d: negative", cfg.phaseCache)
	}
	if cfg.phaseStale < 0 {
		return fmt.Errorf("-phase-stale %d: negative", cfg.phaseStale)
	}
	root, err := open.Device(cfg.device)
	if err != nil {
		return err
	}
	var models *core.Models
	if cfg.modelsDir == "" {
		if models, err = trainQuick(cfg.device.Arch); err != nil {
			return err
		}
		fmt.Fprintln(w, "models: trained quick in-process models (use -models for dvfs-train output)")
	} else if models, err = core.LoadModels(cfg.modelsDir); err != nil {
		return err
	}
	obj, err := objective.ByName(cfg.objective)
	if err != nil {
		return err
	}
	mems, err := open.ParseMemFreqs(cfg.memFreqs, root.Arch())
	if err != nil {
		return err
	}

	base := governor.Config{
		Objective:      obj,
		Threshold:      cfg.threshold,
		DriftTolerance: cfg.driftTol,
		ReprofileAfter: cfg.reprofAfter,
		ProfileSeed:    cfg.seed,
		MemFreqs:       mems,
		PhaseWindow:    cfg.phaseWindow,
	}
	oneShot := base
	oneShot.RetuneCooldown = cfg.runs + 1
	streaming := base
	streaming.RetuneCooldown = cfg.retuneCd
	streaming.FuseStatic = cfg.fuseStatic
	streaming.FuseAdaptive = cfg.fuseAdaptive
	reg := obs.NewRegistry()
	streaming.Metrics = governor.NewMetrics(reg)
	memo := streaming
	memo.Metrics = nil
	memo.PhaseCacheSize = cfg.phaseCache
	memo.PhaseStaleAfter = cfg.phaseStale

	// Each arm gets an identically seeded fork: the comparison isolates
	// the governing policy, nothing else. Each arm's fork index is fixed
	// (3 is unused), so adding or dropping an arm never moves another
	// arm's numbers.
	fork := func(i int64) backend.Device { return root.Fork(cfg.seed + 100*i) }
	arms := make([]armResult, 0, 4)
	am, err := alwaysMax(fork(1), cfg)
	if err != nil {
		return fmt.Errorf("always-max arm: %w", err)
	}
	arms = append(arms, am)
	policies := []struct {
		name string
		fork int64
		gcfg governor.Config
	}{
		{"one-shot", 2, oneShot},
		{"streaming", 4, streaming},
	}
	if cfg.phaseCache > 0 {
		policies = append(policies, struct {
			name string
			fork int64
			gcfg governor.Config
		}{"streaming+memo", 5, memo})
	}
	var rePinAllocs float64
	var memoPhases int
	for _, p := range policies {
		res, g, err := governed(fork(p.fork), models, cfg, p.name, p.gcfg)
		if err != nil {
			return fmt.Errorf("%s arm: %w", p.name, err)
		}
		if p.name == "streaming+memo" {
			memoPhases = res.Phases
			if rePinAllocs, err = measureRePinAllocs(g); err != nil {
				return fmt.Errorf("streaming+memo arm: %w", err)
			}
		}
		arms = append(arms, res)
	}

	rep := report{
		Scenario:  cfg.scenario,
		Backend:   cfg.device.Backend,
		Arch:      root.Arch().Name,
		Runs:      cfg.runs,
		Period:    cfg.period,
		Objective: cfg.objective,
		Threshold: cfg.threshold,
		Seed:      cfg.seed,

		FuseStatic:     cfg.fuseStatic,
		FuseAdaptive:   cfg.fuseAdaptive,
		PhaseWindow:    cfg.phaseWindow,
		RetuneCooldown: cfg.retuneCd,
		PhaseCache:     cfg.phaseCache,
		PhaseStale:     cfg.phaseStale,
		Arms:           arms,
	}
	var maxE, oneE, oneT, strE, strT float64
	for _, a := range arms {
		switch a.Policy {
		case "always-max":
			maxE = a.EnergyJoules
		case "one-shot":
			oneE, oneT = a.EnergyJoules, a.TimeSeconds
		case "streaming":
			strE, strT = a.EnergyJoules, a.TimeSeconds
		case "streaming+memo":
			rep.MemoRePins = a.RePins
			// Profiling runs past one per memoized phase are recall
			// failures: the phase had been seen, yet was re-profiled.
			rep.MemoReprofilesAfterFirst = a.TunedRuns - memoPhases
			if rep.MemoReprofilesAfterFirst < 0 {
				rep.MemoReprofilesAfterFirst = 0 // evictions can retire entries
			}
			rep.MemoRePinAllocsPerOp = rePinAllocs
			if maxE > 0 {
				rep.MemoEnergyVsAlwaysMax = a.EnergyJoules / maxE
			}
			if strE > 0 {
				rep.MemoEnergyVsStreaming = a.EnergyJoules / strE
			}
			if strT > 0 {
				rep.MemoTimeVsStreaming = a.TimeSeconds / strT
			}
		}
	}
	if maxE > 0 {
		rep.StreamingEnergyVsAlwaysMax = strE / maxE
	}
	if oneE > 0 {
		rep.StreamingEnergyVsOneShot = strE / oneE
	}
	if oneT > 0 {
		rep.StreamingPerfLossVsOneShot = strT/oneT - 1
	}

	fmt.Fprintf(w, "govern: %s on %s/%s, %d runs (period %d), objective %s\n",
		cfg.scenario, rep.Backend, rep.Arch, cfg.runs, cfg.period, cfg.objective)
	for _, a := range arms {
		fmt.Fprintf(w, "%-14s %9.1f J %8.2f s  runs %d  tunes %d  retunes %d  re-pins %d  shifts %d  final %v MHz\n",
			a.Policy, a.EnergyJoules, a.TimeSeconds, a.Runs, a.TunedRuns, a.Retunes, a.RePins, a.PhaseShifts, a.FinalFreqMHz)
	}
	fmt.Fprintf(w, "streaming vs always-max energy: %.3f; vs one-shot energy: %.3f, perf loss: %+.3f\n",
		rep.StreamingEnergyVsAlwaysMax, rep.StreamingEnergyVsOneShot, rep.StreamingPerfLossVsOneShot)
	if cfg.phaseCache > 0 {
		fmt.Fprintf(w, "memo vs streaming energy: %.3f, time: %.3f; re-pins %d, reprofiles after first visit %d, re-pin allocs/op %.1f\n",
			rep.MemoEnergyVsStreaming, rep.MemoTimeVsStreaming,
			rep.MemoRePins, rep.MemoReprofilesAfterFirst, rep.MemoRePinAllocsPerOp)
	}
	if cfg.renderMetrics {
		w.Write(reg.Render(nil))
	}

	if cfg.out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.out)
	}
	return nil
}
