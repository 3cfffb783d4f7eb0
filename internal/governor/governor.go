// Package governor adds the runtime piece the paper's methodology stops
// short of: a controller that applies a model-selected frequency to a
// device and keeps watching telemetry for workload drift.
//
// The paper's online phase is one-shot — profile once at the maximum
// clock, pick a frequency, done. That is sound while the workload keeps
// the same computational character: the selected features (fp_active,
// dram_active) are input-size- and DVFS-invariant, so neither a bigger
// problem size nor the applied clock invalidates the choice. What does
// invalidate it is a change of character — a simulation entering a
// different phase, a training job switching models. The governor detects
// that as feature drift against the profiling baseline and re-runs the
// online phase.
package governor

import (
	"errors"
	"fmt"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/trace"
)

// Config controls governing behaviour. The zero value is not usable; use
// DefaultConfig or fill Objective.
type Config struct {
	// Objective ranks candidate frequencies (required).
	Objective objective.Objective
	// Threshold is the performance-degradation bound for Algorithm 1; a
	// negative value selects the unconstrained optimum.
	Threshold float64
	// DriftTolerance is the relative feature change versus the profiling
	// baseline that counts as drift. Default 0.25: well above the
	// features' natural DVFS/input-size wobble (§4.2), well below a
	// change of computational character.
	DriftTolerance float64
	// ReprofileAfter is how many consecutive drifted observations trigger
	// re-tuning (hysteresis against transients). Default 3.
	ReprofileAfter int
	// ProfileSeed seeds the profiling runs' telemetry noise.
	ProfileSeed int64
	// MemFreqs extends the governed design space to the (core × memory)
	// grid: each tune sweeps every (core, mem) pair and pins both clocks.
	// Every entry must be a memory P-state the device supports. Nil governs
	// the core axis only — bit-identical to the historical behaviour.
	MemFreqs []float64

	// PhaseWindow is the half-window of the streaming change-point detector
	// (trace.OnlineOptions.Window) the Run loop rides on every telemetry
	// sample. Default 8 (minimum 2).
	PhaseWindow int
	// RetuneCooldown is the minimum number of governed runs between tunes in
	// the Run loop: drift and phase-shift evidence accumulates but cannot
	// trigger a re-profile until the cooldown has passed. Default 1 (re-tune
	// as soon as evidence demands). A cooldown longer than the stream turns
	// the loop into the paper's one-shot governor.
	RetuneCooldown int
	// FuseStatic blends statically derived workload traits into the
	// prediction features when the workload implements
	// backend.StaticProfiler: feature = (1-w)·dynamic + w·static. 0 (the
	// default) disables fusion and keeps every tune bit-identical to the
	// telemetry-only formulation. Must be in [0, 1).
	FuseStatic float64
	// FuseAdaptive derives the fusion blend weight from observed telemetry
	// noise instead of applying FuseStatic as a fixed weight: FuseStatic
	// becomes the weight's ceiling, approached as per-sample feature
	// variance grows past the natural noise floor (noisy telemetry → lean
	// on static traits) and released as the signal cleans up. Each tune
	// derives its weight from its own profiling run's sample variance.
	// With FuseStatic 0 the weight is identically 0, bit-identical to the
	// fusion-free governor.
	FuseAdaptive bool

	// PhaseCacheSize bounds the governor's phase-memoization cache: the
	// number of tuned phases whose selections are retained for
	// zero-reprofile re-pins when the stream revisits them. 0 (the
	// default) disables memoization — every retune re-profiles, exactly
	// the pre-cache behaviour.
	PhaseCacheSize int
	// PhaseQuantum is the feature quantization step of the phase
	// fingerprint: phases whose mean (fp_active, dram_active) fall in the
	// same quantum alias to one cache entry, phases further apart than a
	// quantum in either feature provably never do. Default 0.1 — wide
	// enough to absorb the features' natural DVFS/input-size wobble
	// (§4.2), narrow enough to separate changes of computational
	// character.
	PhaseQuantum float64
	// PhaseStaleAfter bounds a memoized phase's confidence in governed
	// runs: an entry last pinned more than this many runs ago is treated
	// as stale and re-profiled instead of re-pinned (the fresh tune
	// refreshes the entry). 0 (the default) means entries never decay.
	PhaseStaleAfter int
	// Metrics, when non-nil, receives the governor's observability counters
	// and latency histograms. Nil disables instrumentation at zero cost.
	Metrics *Metrics
}

// DefaultConfig returns a governor configuration with the paper's ED²P
// objective, unconstrained selection, and default drift hysteresis.
func DefaultConfig() Config {
	return Config{Objective: objective.ED2P{}, Threshold: -1}
}

func (c Config) withDefaults() (Config, error) {
	if c.Objective == nil {
		return c, errors.New("governor: Config.Objective is required")
	}
	if c.DriftTolerance == 0 {
		c.DriftTolerance = 0.25
	}
	if c.DriftTolerance < 0 || c.DriftTolerance >= 1 {
		return c, fmt.Errorf("governor: drift tolerance %v out of (0,1)", c.DriftTolerance)
	}
	if c.ReprofileAfter == 0 {
		c.ReprofileAfter = 3
	}
	if c.ReprofileAfter < 0 {
		return c, fmt.Errorf("governor: negative reprofile hysteresis %d", c.ReprofileAfter)
	}
	if c.PhaseWindow == 0 {
		c.PhaseWindow = 8
	}
	if c.PhaseWindow < 2 {
		return c, fmt.Errorf("governor: phase window %d < 2", c.PhaseWindow)
	}
	if c.RetuneCooldown == 0 {
		c.RetuneCooldown = 1
	}
	if c.RetuneCooldown < 0 {
		return c, fmt.Errorf("governor: negative retune cooldown %d", c.RetuneCooldown)
	}
	if c.FuseStatic < 0 || c.FuseStatic >= 1 {
		return c, fmt.Errorf("governor: static fusion weight %v out of [0,1)", c.FuseStatic)
	}
	if c.PhaseCacheSize < 0 {
		return c, fmt.Errorf("governor: negative phase cache size %d", c.PhaseCacheSize)
	}
	if c.PhaseQuantum == 0 {
		c.PhaseQuantum = 0.1
	}
	if c.PhaseQuantum < 0 {
		return c, fmt.Errorf("governor: negative phase quantum %v", c.PhaseQuantum)
	}
	if c.PhaseStaleAfter < 0 {
		return c, fmt.Errorf("governor: negative phase staleness bound %d", c.PhaseStaleAfter)
	}
	return c, nil
}

// Stats counts governor activity.
type Stats struct {
	Tunes       int // online phases run (initial + re-tunes)
	Runs        int // workload executions observed
	DriftedRuns int // observations flagged as drifted
	Retunes     int // re-tunes triggered by drift (re-profiles and re-pins)
	RePins      int // retunes satisfied from the phase cache, no re-profile
	// DriftRetunes / ShiftRetunes attribute retunes to their trigger
	// sources, counted independently: a retune demanded by both drift
	// hysteresis and a detector shift in the same step increments both, so
	// each counter matches its detector's ground truth.
	DriftRetunes int
	ShiftRetunes int
	PhaseShifts  int // intra-run phase shifts flagged by the streaming detector
	Clamped      int // predictions floored to the safety bounds across all tunes
	// ClampedCore / ClampedMem split Clamped by design-space axis: core
	// counts clamps at the default memory P-state (all of Clamped for a
	// core-only governor), mem counts clamps at off-default memory clocks.
	ClampedCore  int
	ClampedMem   int
	EnergyJoules float64
	TimeSeconds  float64
	// ProfileEnergyJoules / ProfileTimeSeconds account the profiling runs
	// themselves (executed at the maximum clock), separately from the
	// governed executions above — the overhead side of the re-tune ledger.
	ProfileEnergyJoules float64
	ProfileTimeSeconds  float64
}

// Governor applies model-selected frequencies and re-tunes on drift.
type Governor struct {
	dev    backend.Device
	models *core.Models
	cfg    Config

	// sw and profBuf are the serving-path state: the design-space sweeper
	// is built once per governor and every (re-)tune predicts into the same
	// buffer, so a long-lived governor allocates nothing per re-tune.
	sw      *core.Sweeper
	profBuf []objective.Profile

	// fused is the single-sample scratch run the fusion path predicts from;
	// keeping it on the governor makes fused re-tunes allocation-free too.
	fused [1]dcgm.Sample

	tuned     bool
	selection core.Selection
	baseline  dcgm.Sample // mean profiling sample that justified selection
	drifted   int
	stats     Stats

	// Streaming state for the Run loop, built lazily on first use: a
	// persistent telemetry stream (one sampler, never re-created per run)
	// and the online change-point detector riding its samples.
	strm      *dcgm.Stream
	det       *trace.Online
	onSample  func(backend.Sample)
	runShifts int     // shifts flagged during the current governed run
	obsSumFP  float64 // per-run telemetry accumulators for drift checks
	obsSumDR  float64
	obsSqFP   float64 // sums of squares — per-run feature variance for
	obsSqDR   float64 // adaptive fusion and phase noise estimates
	obsCount  int
	sinceTune int  // governed runs since the last tune (cooldown clock)
	retune    bool // evidence demands a re-profile before the next run

	// Phase-memoization state: the bounded cache of tuned phases, plus the
	// pending phase identity stashed by a cache miss so the tune that
	// follows memoizes under the fingerprint observed at trigger time.
	phases      *phaseCache
	pendingKey  string
	pendingHash uint64
	pendingFP   float64
	pendingDR   float64
	havePending bool
	// pendingDrift / pendingShift record which sources demanded the
	// pending retune, so the tune (or re-pin) that consumes it can credit
	// every source independently.
	pendingDrift bool
	pendingShift bool
}

// New returns a governor over dev using the given trained models.
func New(dev backend.Device, models *core.Models, cfg Config) (*Governor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if dev == nil || models == nil {
		return nil, errors.New("governor: device and models are required")
	}
	g := &Governor{dev: dev, models: models, cfg: cfg}
	if cfg.PhaseCacheSize > 0 {
		g.phases = newPhaseCache(cfg.PhaseCacheSize, cfg.PhaseQuantum, cfg.PhaseStaleAfter)
	}
	return g, nil
}

// Selection returns the currently applied selection; valid after Tune.
func (g *Governor) Selection() core.Selection { return g.selection }

// Stats returns a snapshot of the governor's counters.
func (g *Governor) Stats() Stats { return g.stats }

// sweeper lazily resolves the design-space sweeper and the governor-owned
// profile buffer the tune paths predict into. It goes through the models'
// memoized GridSweeperFor, so every governor (and the serving layer) over
// the same models and target shares one workspace-pooled sweeper — the
// profile buffer stays per-governor.
func (g *Governor) sweeper() (*core.Sweeper, error) {
	if g.sw == nil {
		sw, err := g.models.GridSweeperFor(g.dev.Arch(), g.dev.Arch().DesignClocks(), g.cfg.MemFreqs)
		if err != nil {
			return nil, err
		}
		g.sw = sw
		g.profBuf = make([]objective.Profile, sw.GridSize())
	}
	return g.sw, nil
}

// applyClamps folds one sweep's clamp counts into the governor's counters.
func (g *Governor) applyClamps(c core.Clamps) {
	g.stats.Clamped += c.Total()
	g.stats.ClampedCore += c.Core
	g.stats.ClampedMem += c.Mem
}

// pin applies a selection to the device: the core clock always, the memory
// clock only when the selection carries one (2-D governors; a core-only
// governor never touches the memory P-state).
func (g *Governor) pin(sel core.Selection) error {
	if err := g.dev.SetClock(sel.FreqMHz); err != nil {
		return err
	}
	if sel.MemFreqMHz != 0 {
		if err := g.dev.SetMemClock(sel.MemFreqMHz); err != nil {
			return err
		}
	}
	return nil
}

// profileAtMax runs one profiling run at the maximum clock with the same
// seed schedule every tune path uses.
func (g *Governor) profileAtMax(app backend.Workload) (dcgm.Run, error) {
	coll := dcgm.NewCollector(g.dev, dcgm.Config{Seed: g.cfg.ProfileSeed + int64(g.stats.Tunes)})
	run, err := coll.ProfileAtMax(app)
	if err != nil {
		return dcgm.Run{}, fmt.Errorf("governor: profiling %s: %w", app.WorkloadName(), err)
	}
	g.stats.ProfileEnergyJoules += run.EnergyJoules
	g.stats.ProfileTimeSeconds += run.ExecTimeSec
	g.cfg.Metrics.tuned(run.ExecTimeSec)
	return run, nil
}

// Tune runs the paper's online phase for app (one profiling run at the
// maximum clock), selects the optimal frequency under the configured
// objective, and pins the device clock to it. Predictions go through the
// governor's reused sweeper and buffer; the selection is bit-identical to
// the allocating core.OnlinePredict + SelectFrequency formulation.
func (g *Governor) Tune(app backend.Workload) (core.Selection, error) {
	if _, err := g.sweeper(); err != nil {
		return core.Selection{}, err
	}
	run, err := g.profileAtMax(app)
	if err != nil {
		return core.Selection{}, err
	}
	return g.tuneFrom(app, run)
}

// tuneFrom completes a tune from an already-collected profiling run:
// predict across the design space, select under the objective, pin the
// device, and reset the drift state. With static fusion configured and a
// workload that exposes static traits, the prediction features are the
// fused blend; the drift baseline stays the raw dynamic mean, since drift
// is judged against observed telemetry. With FuseStatic 0 the prediction
// input is the run itself, bit-identical to the historical Tune.
func (g *Governor) tuneFrom(app backend.Workload, run dcgm.Run) (core.Selection, error) {
	sw, err := g.sweeper()
	if err != nil {
		return core.Selection{}, err
	}
	mean := run.MeanSample()
	predict := run
	if w := g.fuseWeight(run); w > 0 {
		if sp, ok := app.(backend.StaticProfiler); ok {
			if tr := sp.Static(); !tr.IsZero() {
				g.fused[0] = FuseSample(mean, tr, w)
				predict.Samples = g.fused[:]
			}
		}
	}
	clamped, err := sw.PredictProfileInto(g.profBuf, predict)
	if err != nil {
		return core.Selection{}, fmt.Errorf("governor: predicting %s: %w", app.WorkloadName(), err)
	}
	g.applyClamps(clamped)
	sel, err := core.SelectFrequency(g.profBuf, g.cfg.Objective, g.cfg.Threshold)
	if err != nil {
		return core.Selection{}, err
	}
	if err := g.pin(sel); err != nil {
		return core.Selection{}, err
	}
	g.selection = sel
	g.baseline = mean
	g.tuned = true
	g.drifted = 0
	g.stats.Tunes++
	return sel, nil
}

// driftedFeatures reports whether the feature pair (fp_active,
// dram_active) departs from the profiling baseline by more than the
// configured tolerance in either feature — the two features whose
// invariance justifies keeping the current frequency. The streaming loop
// feeds it from its per-run telemetry accumulators.
func (g *Governor) driftedFeatures(fp, dram float64) bool {
	return relDiff(fp, g.baseline.FPActive()) > g.cfg.DriftTolerance ||
		relDiff(dram, g.baseline.DRAMActive) > g.cfg.DriftTolerance
}

// noteDrift feeds one run's drift verdict into the hysteresis counter and
// reports whether drift has now persisted for ReprofileAfter consecutive
// runs — the point where the governor must re-run the online phase.
func (g *Governor) noteDrift(drifted bool) bool {
	if drifted {
		g.drifted++
		g.stats.DriftedRuns++
	} else {
		g.drifted = 0
	}
	return g.drifted >= g.cfg.ReprofileAfter
}

func relDiff(a, b float64) float64 {
	// Below this level activities are compared on an absolute scale: a
	// 0.06→0.09 move is normal clock-induced wobble for a near-idle pipe
	// (§4.2's invariance is absolute for small activities), not a change
	// of workload character.
	const eps = 0.15
	d := a - b
	if d < 0 {
		d = -d
	}
	den := b
	if den < eps {
		den = eps
	}
	return d / den
}
