package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/fleet"
)

// The fleet: 128 nodes of 4 GPUs, Zipf(s=1.1) arrivals over the 27-workload
// max-clock catalogue at 60% utilization, with the whole catalogue
// resolved through the plan cache before the loop so every arrival takes
// the in-process derived-hit path.
const (
	fleetNodes       = 128
	fleetGPUsPerNode = 4
	// fleetArrivals is per Run: about 25 ms, so a 100 ms window holds a
	// few Runs.
	fleetArrivals    = 25_000
	fleetUtilization = 0.6
)

type fleetStack struct {
	sim *fleet.Sim
	sw  *core.Sweeper
	ref fleet.Result
}

func buildFleet(cfg config) (*fleetStack, error) {
	models, err := trainModels()
	if err != nil {
		return nil, err
	}
	arch := sim.GA100().Spec()
	sw, err := models.GridSweeperFor(arch, arch.DesignClocks(), nil)
	if err != nil {
		return nil, err
	}
	runs, err := catalogueRuns(math.MaxInt)
	if err != nil {
		return nil, err
	}
	// Rate for the target utilization at the maximum clock: jobs ask for
	// 1..4 GPUs uniformly (2.5 on average) and run the Zipf-weighted mean
	// max-clock time of the catalogue; the planner then stretches some.
	var wsum, tsum float64
	for k, r := range runs {
		p := math.Pow(float64(1+k), -1.1)
		wsum += p
		tsum += p * r.ExecTimeSec
	}
	rate := fleetUtilization * fleetNodes * fleetGPUsPerNode / (2.5 * tsum / wsum)
	s, err := fleet.New(sw, runs, fleet.Config{
		Nodes:       fleetNodes,
		GPUsPerNode: fleetGPUsPerNode,
		Rate:        rate,
		Dist:        fleet.DistZipf,
		MaxArrivals: cfg.scaled(fleetArrivals),
		Seed:        cfg.seed,
		Prewarm:     true,
		Workers:     1,
	})
	if err != nil {
		return nil, err
	}
	ref, err := s.Run()
	if err != nil {
		return nil, err
	}
	if ref.Completed != ref.Arrivals {
		return nil, fmt.Errorf("reference run completed %d of %d arrivals", ref.Completed, ref.Arrivals)
	}
	return &fleetStack{sim: s, sw: sw, ref: ref}, nil
}

func runFleet(cfg config, w io.Writer) (*result, error) {
	st, setupS, err := timeSetups(cfg, w, func() (*fleetStack, error) { return buildFleet(cfg) }, func(*fleetStack) {})
	if err != nil {
		return nil, err
	}
	ref := st.ref
	fmt.Fprintf(w, "reference run: %d arrivals, %d events, digest %016x; energy %.2f%% below always-max; deadlines missed %d (%.3f%%); plan-cache hit ratio %.4f\n",
		ref.Arrivals, ref.Events, ref.Digest, ref.EnergySavedPct(), ref.Missed, ref.MissRate()*100, ref.HitRatio())

	var t tally
	var ws cutter
	var walls, decP50, decP99, loopAllocs []float64
	m0 := mallocs()
	start := time.Now()
	for time.Since(start) < cfg.measured() {
		t0 := time.Now()
		r, err := st.sim.Run()
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		t.attempted += r.Arrivals
		if r.Completed != r.Arrivals || r.Digest != ref.Digest {
			t.wrong++
			t.failed += r.Arrivals
		} else {
			t.ok += r.Arrivals
		}
		walls = append(walls, ms(wall))
		decP50 = append(decP50, float64(r.P50DecisionNs))
		decP99 = append(decP99, float64(r.P99DecisionNs))
		loopAllocs = append(loopAllocs, float64(r.LoopAllocs))
		ws.add(r.Arrivals, ms(wall))
	}
	ws.done()
	allocs := float64(mallocs()-m0) / float64(t.attempted)
	printPhase(w, fmt.Sprintf("%d fleet runs of %d arrivals in %d windows", len(walls), ref.Arrivals, len(ws.rates)), t, time.Since(start))

	res := newResult(cfg.trace)
	res.count(t)
	if cfg.trace {
		// The fleet engine has no seam to wrap from outside; its layer
		// numbers are the ones the engine reports about itself.
		res.put("fleet.decision_p50_ns", median(decP50))
		res.put("fleet.decision_p99_ns", median(decP99))
		res.put("fleet.loop_allocs", median(loopAllocs))
		res.put("fleet.events_per_arrival", float64(ref.Events)/float64(ref.Arrivals))
		res.put("core.plancache.hit_ratio", ref.HitRatio())
		runs, err := catalogueRuns(1)
		if err != nil {
			return nil, err
		}
		sweep, err := sweepProbe(st.sw, runs, cfg.measured()/16)
		if err != nil {
			return nil, err
		}
		res.put("core.sweep_us", sweep)
		return res, nil
	}
	fmt.Fprintf(w, "run wall time: p50 %.4g ms, p%g %.4g ms over %d runs; program-reported decision latency p50 %.0f ns, p99 %.0f ns\n",
		quantile(walls, 0.5), latencyTailQ*100, quantile(walls, latencyTailQ), len(walls), median(decP50), median(decP99))
	ws.print(w, "arrivals/s")
	res.put("setup_s", setupS)
	res.put("ops_per_s", ws.opsPerSec())
	res.put("latency_p50_ms", ws.p50())
	res.put("latency_tail_ms", ws.tail())
	res.put("allocs_per_op", allocs)
	res.put("energy_saved_pct", ref.EnergySavedPct())
	res.put("heap_live_mb", heapLiveMiB())
	runtime.KeepAlive(st)
	return res, nil
}
