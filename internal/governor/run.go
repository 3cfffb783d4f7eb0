package governor

import (
	"context"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/trace"
)

// WorkloadStream feeds the Run loop one workload execution at a time.
// Next returns the next item to execute, or ok=false when the stream is
// exhausted. Implementations must not allocate per call if the governed
// loop is to stay allocation-free (workloads.Sequence qualifies).
type WorkloadStream interface {
	Next() (backend.Workload, bool)
}

// RunReport is the loop's complete energy/perf ledger: every stream item
// is accounted exactly once, whether it executed at the governed clocks or
// as a max-clock profiling run (a re-tune does not execute the item twice
// — the profiling run *is* that item's execution).
type RunReport struct {
	Runs      int // stream items executed (governed + profiling runs)
	TunedRuns int // items that executed at the maximum clock as profiling runs
	Retunes   int // mid-stream re-tunes: re-profiles and cache re-pins
	RePins    int // retunes satisfied from the phase cache, no profiling run
	// DriftRetunes / ShiftRetunes attribute retunes to their trigger
	// sources, each counted independently — a retune demanded by both
	// signals in one step increments both, so the counters match drift
	// hysteresis and detector ground truth.
	DriftRetunes int
	ShiftRetunes int
	PhaseShifts  int // intra-run shifts flagged by the online detector
	DriftedRuns  int // governed runs whose mean features drifted off baseline

	EnergyJoules float64 // total energy across all items
	TimeSeconds  float64 // total execution time across all items
}

// Run is the streaming control loop — the generalization the one-shot
// paths specialize: consume workload executions from stream, keep the
// device pinned at the model-selected clocks, watch the per-sample
// telemetry through the online change-point detector, and re-run the
// paper's online phase mid-stream when a phase shift is flagged or mean
// drift persists past the hysteresis, subject to the retune cooldown.
//
// The first item (and every item after a pending re-tune) executes as the
// profiling run at the maximum clock; all other items execute at the
// governed clocks through a persistent telemetry stream. The steady-state
// iteration allocates nothing: one sampler session, one detector, one
// pre-bound yield closure, reused prediction buffers.
//
// Run returns the report accumulated so far alongside any error; a
// cancelled context returns the context's error.
func (g *Governor) Run(ctx context.Context, stream WorkloadStream) (RunReport, error) {
	var rep RunReport
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		app, ok := stream.Next()
		if !ok {
			return rep, nil
		}
		if err := g.step(app, &rep); err != nil {
			return rep, err
		}
	}
}

// streamState lazily builds the loop's persistent telemetry session: a
// dcgm.Stream whose sampler (and noise stream) survives across runs, the
// online detector, and the yield closure binding both — constructed once
// so the steady-state loop closes over nothing per run.
func (g *Governor) streamState() (*dcgm.Stream, error) {
	if g.strm != nil {
		return g.strm, nil
	}
	strm, err := dcgm.NewCollector(g.dev, dcgm.Config{Seed: g.cfg.ProfileSeed + 1000}).Stream()
	if err != nil {
		return nil, err
	}
	det, err := trace.NewOnline(trace.OnlineOptions{Window: g.cfg.PhaseWindow})
	if err != nil {
		return nil, err
	}
	g.strm, g.det = strm, det
	g.onSample = func(s backend.Sample) {
		if g.det.PushSample(s) {
			g.runShifts++
		}
		fp, dr := s.FPActive(), s.DRAMActive
		g.obsSumFP += fp
		g.obsSumDR += dr
		g.obsSqFP += fp * fp
		g.obsSqDR += dr * dr
		g.obsCount++
	}
	return g.strm, nil
}

// step executes one stream item: as a (re-)profiling run when the
// governor is untuned or a re-tune is pending, as a governed run
// otherwise.
func (g *Governor) step(app backend.Workload, rep *RunReport) error {
	if !g.tuned || g.retune {
		return g.tuneStep(app, rep)
	}
	strm, err := g.streamState()
	if err != nil {
		return err
	}

	g.runShifts, g.obsCount = 0, 0
	g.obsSumFP, g.obsSumDR, g.obsSqFP, g.obsSqDR = 0, 0, 0, 0
	run, err := strm.Run(app, g.stats.Runs, g.onSample)
	if err != nil {
		return err
	}
	rep.Runs++
	rep.EnergyJoules += run.EnergyJoules
	rep.TimeSeconds += run.ExecTimeSec
	g.stats.Runs++
	g.stats.EnergyJoules += run.EnergyJoules
	g.stats.TimeSeconds += run.ExecTimeSec
	g.cfg.Metrics.governed(run.ExecTimeSec)

	drifted := false
	if g.obsCount > 0 {
		n := float64(g.obsCount)
		drifted = g.driftedFeatures(g.obsSumFP/n, g.obsSumDR/n)
	}
	demand := g.noteDrift(drifted)
	if drifted {
		rep.DriftedRuns++
		g.cfg.Metrics.drifted()
	}
	if g.runShifts > 0 {
		rep.PhaseShifts += g.runShifts
		g.stats.PhaseShifts += g.runShifts
		g.cfg.Metrics.shifts(g.runShifts)
	}
	g.sinceTune++
	// An intra-run shift is direct evidence of a change of character and
	// bypasses the mean-drift hysteresis; both signals wait out the
	// cooldown. A demanded retune first tries the phase cache: if the
	// incoming phase is memoized and fresh, its selection is re-pinned
	// right here — the retune is complete and the next item runs governed.
	// Otherwise the re-profile is scheduled for the next item, and the
	// phase identity observed now seeds the cache when that tune lands.
	if (demand || g.runShifts > 0) && g.sinceTune >= g.cfg.RetuneCooldown {
		if demand {
			g.pendingDrift = true
		}
		if g.runShifts > 0 {
			g.pendingShift = true
		}
		ok, err := g.rePin(rep)
		if err != nil {
			return err
		}
		if !ok {
			g.retune = true
		}
	}
	return nil
}

// tuneStep runs the online phase on this stream item: the profiling run
// at the maximum clock is the item's execution, accounted like any other
// run, and its telemetry re-selects the governed clocks.
func (g *Governor) tuneStep(app backend.Workload, rep *RunReport) error {
	wasTuned := g.tuned
	if _, err := g.sweeper(); err != nil {
		return err
	}
	run, err := g.profileAtMax(app)
	if err != nil {
		return err
	}
	rep.Runs++
	rep.TunedRuns++
	rep.EnergyJoules += run.EnergyJoules
	rep.TimeSeconds += run.ExecTimeSec

	if _, err := g.tuneFrom(app, run); err != nil {
		return err
	}
	g.memoize(featureVariance(run.Samples))
	// Stale pre-tune samples must not re-flag the shift just acted on.
	if g.det != nil {
		g.det.Reset()
	}
	g.sinceTune = 0
	g.retune = false
	if wasTuned {
		rep.Retunes++
		g.stats.Retunes++
		g.cfg.Metrics.retuned()
		g.commitTriggers(rep)
	}
	return nil
}
