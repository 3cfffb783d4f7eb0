package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/governor"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

// The governed workload: streams of three recurring phases (compute-bound
// DGEMM, memory-bound STREAM, mixed LAMMPS), so the governor re-tunes on
// every phase change and, after the first visit to a phase, re-pins from
// its phase cache instead of profiling again. The governor seeds each
// profiling run by its index, so which phase is profiled first, second or
// third decides the noise its memoized clock was picked from; that moves a
// stream's energy by up to a fifth. A pass therefore runs
// governedPerOrder streams per phase order, each on a fresh governor, and
// the seed draws only the length of every phase visit. Whether a stream
// pays one more profiling run still depends on those lengths; averaging
// twelve streams keeps a pass's energy and allocations within a few
// percent across seeds.
const (
	governedPerOrder = 2
	governedItems    = 1_667 // per stream; 12 streams make a pass
	governedPeriod   = 40    // mean items per phase visit
	phaseCacheSize   = 8
)

// governedStreams draws a pass's streams from seed: governedPerOrder
// per order of the three phases, each visit lasting a length uniform in
// [3·governedPeriod/4, 5·governedPeriod/4].
func governedStreams(seed int64, items int) []*workloads.Sequence {
	rng := rand.New(rand.NewSource(seed))
	d, s, l := workloads.DGEMM(), workloads.STREAM(), workloads.LAMMPS()
	var orders [][]sim.KernelProfile
	for i := 0; i < governedPerOrder; i++ {
		orders = append(orders, [][]sim.KernelProfile{{d, s, l}, {d, l, s}, {s, d, l}, {s, l, d}, {l, d, s}, {l, s, d}}...)
	}
	out := make([]*workloads.Sequence, len(orders))
	for v, phases := range orders {
		seq := make([]backend.Workload, 0, items)
		for p := 0; len(seq) < items; p++ {
			n := 3*governedPeriod/4 + rng.Intn(governedPeriod/2+1)
			for i := 0; i < n && len(seq) < items; i++ {
				seq = append(seq, phases[p%len(phases)])
			}
		}
		out[v] = workloads.NewSequence(seq...)
	}
	return out
}

// governedStack is one set-up governed workload: the models, the device
// every governor forks identically, each stream's reference report and the
// always-max energy and time they are measured against.
type governedStack struct {
	models *core.Models
	root   backend.Device
	gcfg   governor.Config
	tr     *tracer
	clocks []*itemClock // one per stream
	items  int          // per pass, over every stream

	refs       []governor.RunReport
	maxE, maxT float64 // always-max, summed over the streams
	govE, govT float64 // the references, summed over the streams
}

func buildGoverned(cfg config, tr *tracer) (*governedStack, error) {
	models, err := trainModels()
	if err != nil {
		return nil, err
	}
	root, err := sim.NewByName(archName, deviceSeed)
	if err != nil {
		return nil, err
	}
	st := &governedStack{
		models: models,
		root:   root,
		gcfg:   governor.Config{Objective: objective.EDP{}, Threshold: -1, ProfileSeed: deviceSeed, PhaseCacheSize: phaseCacheSize},
		tr:     tr,
	}
	for _, seq := range governedStreams(cfg.seed, cfg.scaled(governedItems)) {
		e, t, err := alwaysMax(root.Fork(deviceSeed+100), seq)
		if err != nil {
			return nil, err
		}
		c := newItemClock(seq, tr)
		ref, err := st.pass(c)
		if err != nil {
			return nil, err
		}
		if ref.Runs != seq.Len() {
			return nil, fmt.Errorf("reference pass ran %d of %d items", ref.Runs, seq.Len())
		}
		st.clocks = append(st.clocks, c)
		st.refs = append(st.refs, ref)
		st.items += seq.Len()
		st.maxE, st.maxT = st.maxE+e, st.maxT+t
		st.govE, st.govT = st.govE+ref.EnergyJoules, st.govT+ref.TimeSeconds
	}
	return st, nil
}

// alwaysMax streams every item at the maximum clock: the no-DVFS energy
// and time every saving is measured against.
func alwaysMax(dev backend.Device, seq *workloads.Sequence) (energy, secs float64, err error) {
	strm, err := dcgm.NewCollector(dev, dcgm.Config{Seed: deviceSeed + 1000}).Stream()
	if err != nil {
		return 0, 0, err
	}
	if err := dev.SetClock(dev.Arch().MaxFreqMHz); err != nil {
		return 0, 0, err
	}
	seq.Reset()
	for i := 0; ; i++ {
		app, ok := seq.Next()
		if !ok {
			return energy, secs, nil
		}
		run, err := strm.Run(app, i, nil)
		if err != nil {
			return 0, 0, err
		}
		energy += run.EnergyJoules
		secs += run.ExecTimeSec
	}
}

// pass runs a fresh governor over one stream on a fresh, identically
// seeded device.
func (st *governedStack) pass(c *itemClock) (governor.RunReport, error) {
	dev := st.root.Fork(deviceSeed + 100)
	if st.tr != nil {
		dev = &tracedDevice{Device: dev, t: st.tr, profile: "backend.profile", sample: "backend.sample", depth: 1}
	}
	g, err := governor.New(dev, st.models, st.gcfg)
	if err != nil {
		return governor.RunReport{}, err
	}
	c.reset()
	return g.Run(context.Background(), c)
}

// passStats is item throughput and item-time percentiles (ms) per window
// of item time.
type passStats struct {
	cutter
	t      tally
	passes int
}

// passes runs passes — every stream once, each on a fresh governor —
// until dur has elapsed or stop reports true, and checks each governor's
// report against its stream's reference.
func (st *governedStack) passes(dur time.Duration, stop func() bool) (passStats, error) {
	var ps passStats
	start := time.Now()
	for ; time.Since(start) < dur && !stop(); ps.passes++ {
		for v, c := range st.clocks {
			rep, err := st.pass(c)
			if err != nil {
				return ps, err
			}
			n := int64(c.seq.Len())
			ps.t.attempted += n
			if rep != st.refs[v] {
				ps.t.wrong++
				ps.t.failed += n
			} else {
				ps.t.ok += n
			}
			for _, d := range c.durs {
				ps.add(1, d)
			}
		}
	}
	ps.done()
	return ps, nil
}

// summary sums the reference reports over the streams.
func (st *governedStack) summary() governor.RunReport {
	var s governor.RunReport
	for _, r := range st.refs {
		s.Runs += r.Runs
		s.TunedRuns += r.TunedRuns
		s.Retunes += r.Retunes
		s.RePins += r.RePins
	}
	return s
}

func runGoverned(cfg config, w io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(traceSpanLimit)
	}
	st, setupS, err := timeSetups(cfg, w, func() (*governedStack, error) { return buildGoverned(cfg, tr) }, func(*governedStack) {})
	if err != nil {
		return nil, err
	}
	sum := st.summary()
	saved := (st.maxE - st.govE) / st.maxE * 100
	fmt.Fprintf(w, "references over %d streams: %d items, %d profiling runs, %d retunes, %d re-pins; %.4g J vs %.4g J always-max (%.3f%% saved), time %+.3f%%\n",
		len(st.refs), sum.Runs, sum.TunedRuns, sum.Retunes, sum.RePins, st.govE, st.maxE, saved, (st.govT/st.maxT-1)*100)
	if cfg.trace {
		return traceGoverned(cfg, st, tr, w)
	}

	res := newResult(false)
	res.put("setup_s", setupS)
	m0 := mallocs()
	ps, err := st.passes(cfg.measured(), func() bool { return false })
	if err != nil {
		return nil, err
	}
	allocs := float64(mallocs()-m0) / float64(ps.t.attempted)
	printPhase(w, fmt.Sprintf("%d passes of %d governors x %d items", ps.passes, len(st.clocks), st.items/len(st.clocks)), ps.t, cfg.measured())
	ps.print(w, "items/s")
	fmt.Fprintf(w, "item wall time, median over %d windows: p50 %.4g ms, p%g %.4g ms\n",
		len(ps.rates), median(ps.p50s), latencyTailQ*100, median(ps.tails))
	res.count(ps.t)
	res.put("ops_per_s", ps.opsPerSec())
	res.put("latency_p50_ms", ps.p50())
	res.put("latency_tail_ms", ps.tail())
	res.put("allocs_per_op", allocs)
	res.put("energy_saved_pct", saved)
	res.put("heap_live_mb", heapLiveMiB())
	runtime.KeepAlive(st)
	return res, nil
}

// traceGoverned is the per-layer run: half the time unrecorded, then
// recorded passes until the span list fills or time is up.
func traceGoverned(cfg config, st *governedStack, tr *tracer, w io.Writer) (*result, error) {
	res := newResult(true)
	half := cfg.measured() / 2
	off, err := st.passes(half, func() bool { return false })
	if err != nil {
		return nil, err
	}
	printPhase(w, "governor passes, recording off", off.t, half)
	tr.on.Store(true)
	on, err := st.passes(half, tr.full)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	printPhase(w, "governor passes, recording on", on.t, half)
	res.count(off.t)
	res.count(on.t)
	tr.link()

	var items, tunes, samples, profiles, self, child []float64
	for root, kids := range tr.children() {
		item := tr.spans[root]
		var c span
		if p, ok := kids["backend.profile"]; ok {
			c = p
			tunes = append(tunes, us(item.dur()))
			profiles = append(profiles, us(p.dur()))
		} else if s, ok := kids["backend.sample"]; ok {
			c = s
			samples = append(samples, us(s.dur()))
		} else {
			continue
		}
		items = append(items, us(item.dur()))
		self = append(self, us(item.dur()-c.dur()))
		child = append(child, us(c.dur()))
	}
	if len(items) == 0 || len(samples) == 0 || len(tunes) == 0 {
		return nil, fmt.Errorf("traced windows recorded %d items, %d samples, %d tunes", len(items), len(samples), len(tunes))
	}
	itemP50 := median(items)
	closure := math.Abs(median(self)+median(child)-itemP50) / itemP50 * 100
	fmt.Fprintf(w, "per-layer self time over %d items (p50 us): item %.3f = governor self %.3f + device %.3f (closure %.2f%%); sample %.3f, tune item %.1f over %d tunes, profiling run %.1f\n",
		len(items), itemP50, median(self), median(child), closure, median(samples), median(tunes), len(tunes), median(profiles))
	res.put("governor.item_us", itemP50)
	res.put("governor.tune_item_us", median(tunes))
	res.put("backend.sample_us", median(samples))
	res.put("governor.self_us", median(self))
	res.put("dcgm.profile_us", median(profiles))
	res.put("budget_closure_pct", closure)
	res.put("trace_overhead_pct", (itemP50/1000-median(off.p50s))/median(off.p50s)*100)

	sum := st.summary()
	res.put("governor.reprofile_ratio", float64(sum.TunedRuns)/float64(sum.Runs))
	res.put("governor.repin_ratio", float64(sum.RePins)/float64(sum.Runs))
	if sum.Retunes > 0 {
		res.put("governor.phase_hit_ratio", float64(sum.RePins)/float64(sum.Retunes))
	}
	sw, err := st.models.GridSweeperFor(st.root.Arch(), st.root.Arch().DesignClocks(), nil)
	if err != nil {
		return nil, err
	}
	runs, err := catalogueRuns(1)
	if err != nil {
		return nil, err
	}
	sweep, err := sweepProbe(sw, runs, half/8)
	if err != nil {
		return nil, err
	}
	res.put("core.sweep_us", sweep)
	return res, tr.write(cfg.traceOut, cfg.workload)
}
