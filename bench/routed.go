package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/workloads"
)

// routedSpec is one routed workload: dvfs-router in front of two
// dvfs-served replicas, driven by one process over at most two
// connections.
type routedSpec struct {
	grid2D   bool    // sweep core × every memory P-state instead of core only
	capacity int     // replica plan-cache entries; 0 is the default
	shards   int     // replica plan-cache shards; 0 is the default
	rate     float64 // open-loop requests per second
	sloMs    float64 // latency limit the slo share is counted against
	warm     int     // closed-loop warm-up requests after one per name
	// names returns the request-name sequence made from seed; request i
	// asks for names[i % len].
	names func(seed int64, catalogue []string) []string
}

// routedHit: Zipf(s=1.1) draws over the catalogue with default replica
// caches and a warmed cache, so every measured request is a plan-cache
// hit. It isolates router, HTTP, per-request max-clock profiling and cache
// lookup, and bypasses the batcher and the DNN sweep. The open loop runs
// at about a tenth of the closed-loop throughput: at 3000 req/s a
// window's p95 doubled whenever the host slowed a vCPU, at 1000 req/s it
// moved by a third.
var routedHit = routedSpec{
	rate:  1000,
	sloMs: 5,
	warm:  2000,
	names: func(seed int64, catalogue []string) []string {
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(catalogue)-1))
		out := make([]string, 1<<16)
		for i := range out {
			out[i] = catalogue[z.Uint64()]
		}
		return out
	},
}

// routedMiss: one-entry, one-shard replica caches, the 2-D grid (61 core
// clocks × 3 memory P-states = 183 points) and names round-robin in a
// seeded order. The working set exceeds the cache, so almost every request
// runs the batcher and the DNN sweep and writes and evicts a cache entry
// (the few hits are names that share a plan-cache bucket with the name
// before them): the write-side counterpart of routedHit.
var routedMiss = routedSpec{
	grid2D:   true,
	capacity: 1,
	shards:   1,
	rate:     400,
	sloMs:    10,
	warm:     300,
	names: func(seed int64, catalogue []string) []string {
		rng := rand.New(rand.NewSource(seed))
		out := make([]string, len(catalogue))
		for i, j := range rng.Perm(len(catalogue)) {
			out[i] = catalogue[j]
		}
		return out
	},
}

// routedConns is how many connections the load generator opens and how
// many closed-loop clients it runs.
const routedConns = 2

// traceSpanLimit bounds the traced run's in-memory span list.
const traceSpanLimit = 120_000

// routedStack is one set-up routed topology with its references.
type routedStack struct {
	tp        *topology
	sw        *core.Sweeper
	ref       map[string]answer
	selectURL string
	bodies    map[string][]byte
	wrong     atomic.Int64 // answers that matched no reference
}

// maxWrongReports bounds how many mismatching answers are written to
// standard error.
const maxWrongReports = 3

func buildRouted(cfg config, spec routedSpec, catalogue []string, tr *tracer) (*routedStack, error) {
	models, err := trainModels()
	if err != nil {
		return nil, err
	}
	arch := sim.GA100().Spec()
	var mems []float64
	if spec.grid2D {
		mems = arch.MemClocks()
	}
	sw, err := models.GridSweeperFor(arch, arch.DesignClocks(), mems)
	if err != nil {
		return nil, err
	}
	rc := replicaConfig{sw: sw, capacity: spec.capacity, shards: spec.shards}
	ref, err := referenceAnswers(rc, catalogue)
	if err != nil {
		return nil, err
	}
	tp, err := startTopology(rc, 2, routedConns, tr)
	if err != nil {
		return nil, err
	}
	s := &routedStack{tp: tp, sw: sw, ref: ref, selectURL: tp.routerURL + "/v1/select", bodies: map[string][]byte{}}
	for _, name := range catalogue {
		s.bodies[name] = selectBody(name)
	}
	var w worker
	for _, name := range catalogue {
		if !s.call(&w, name) {
			tp.close()
			return nil, fmt.Errorf("warm-up select %s failed", name)
		}
	}
	for i := 0; i < cfg.scaled(spec.warm); i++ {
		if !s.call(&w, catalogue[i%len(catalogue)]) {
			tp.close()
			return nil, fmt.Errorf("warm-up request %d failed", i)
		}
	}
	return s, nil
}

// call sends one select through the router and checks the answer against
// the standalone reference.
func (s *routedStack) call(w *worker, name string) bool {
	w.t.attempted++
	req, err := http.NewRequest(http.MethodPost, s.selectURL, bytes.NewReader(s.bodies[name]))
	if err != nil {
		w.t.failed++
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.tp.client.Do(req)
	if err != nil {
		w.t.failed++
		return false
	}
	w.buf.Reset()
	_, err = w.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		w.t.failed++
		return false
	}
	ref := s.ref[name]
	k := ref.match(w.buf.Bytes())
	if k < 0 {
		if s.wrong.Add(1) <= maxWrongReports {
			fmt.Fprintf(os.Stderr, "bench: wrong answer for %s: %s  want one of %d same-bucket selections, e.g. %s\n",
				name, bytes.TrimSpace(w.buf.Bytes()), len(ref.energyPct), bytes.TrimSpace(ref.bodies[0]))
		}
		w.t.wrong++
		w.t.failed++
		return false
	}
	if k%2 == 1 {
		w.t.hits++
	}
	w.t.ok++
	w.t.energyPct += ref.energyPct[k/2]
	return true
}

func runRouted(cfg config, spec routedSpec, w io.Writer) (*result, error) {
	catalogue := workloads.Names()
	seq := spec.names(cfg.seed, catalogue)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(traceSpanLimit)
	}
	s, setupS, err := timeSetups(cfg, w,
		func() (*routedStack, error) { return buildRouted(cfg, spec, catalogue, tr) },
		func(s *routedStack) { s.tp.close() })
	if err != nil {
		return nil, err
	}
	defer s.tp.close()
	call := func(wk *worker, i int) bool { return s.call(wk, seq[i%len(seq)]) }
	if cfg.trace {
		return traceRouted(cfg, spec, s, tr, seq, call, w)
	}

	res := newResult(false)
	res.put("setup_s", setupS)
	total := cfg.measured()
	openDur := total * 6 / 10
	open, err := openLoop(max(1, int(spec.rate*openDur.Seconds())), spec.rate, routedConns, call)
	if err != nil {
		return nil, err
	}
	printPhase(w, fmt.Sprintf("open loop %g/s over %d conns", spec.rate, routedConns), open.t, open.elapsed)

	m0 := mallocs()
	closed := closedLoop(routedConns, total-openDur, call)
	allocs := float64(mallocs()-m0) / float64(closed.t.attempted)
	printPhase(w, fmt.Sprintf("closed loop %d clients", routedConns), closed.t, closed.elapsed)

	res.count(open.t)
	res.count(closed.t)
	lw := closed.ws
	open.latencyWindows(&lw, spec.rate) // before anything sorts open.lat whole
	within := 0
	for _, l := range open.lat {
		if l <= spec.sloMs {
			within++
		}
	}
	late99 := quantile(open.late, 0.99)
	fmt.Fprintf(w, "open-loop latency from due time: p50 %.4g ms, p%g %.4g ms over %d samples (failures count as +Inf); within %g ms: %.3f%%; generator late p99 %.4g ms\n",
		quantile(open.lat, 0.5), latencyTailQ*100, quantile(open.lat, latencyTailQ), len(open.lat), spec.sloMs, 100*float64(within)/float64(len(open.lat)), late99)
	lw.print(w, "req/s (closed loop); latencies from the open loop")
	fmt.Fprintf(w, "cache hits in answers: %d of %d\n", open.t.hits+closed.t.hits, open.t.ok+closed.t.ok)
	res.put("ops_per_s", lw.opsPerSec())
	res.put("latency_p50_ms", lw.p50())
	res.put("latency_tail_ms", lw.tail())
	res.put("allocs_per_op", allocs)
	res.put("energy_saved_pct", (open.t.energyPct+closed.t.energyPct)/float64(open.t.ok+closed.t.ok))
	open.lat, open.late = nil, nil
	res.put("heap_live_mb", heapLiveMiB())
	runtime.KeepAlive(s)
	return res, nil
}

// serial runs call back to back on one client for dur, or until stop
// reports true, and returns each call's wall time in microseconds.
func serial(dur time.Duration, call func(i int), stop func() bool) []float64 {
	var durs []float64
	start := time.Now()
	for i := 0; time.Since(start) < dur && !stop(); i++ {
		t0 := time.Now()
		call(i)
		durs = append(durs, us(time.Since(t0)))
	}
	return durs
}

// traceRouted is the per-layer run of a routed workload. Its phases, each
// a quarter of the run: one client unrecorded, one client recorded, a
// cache-hit probe (routed-miss only), and the open loop at the workload's
// rate with recording off for the layer counters.
func traceRouted(cfg config, spec routedSpec, s *routedStack, tr *tracer, seq []string, call caller, w io.Writer) (*result, error) {
	res := newResult(true)
	quarter := cfg.measured() / 4
	never := func() bool { return false }
	var id int64
	// request sends request i on wk as one traced request named root.
	request := func(wk *worker, root string, i int) {
		id++
		tr.cur.Store(id)
		start := time.Now()
		s.call(wk, seq[i%len(seq)])
		tr.record(root, 0, start, time.Now())
	}

	var off, on, probe worker
	base := serial(quarter, func(i int) { request(&off, "http.request", i) }, never)
	printPhase(w, "one client, recording off", off.t, quarter)
	tr.on.Store(true)
	serial(quarter, func(i int) { request(&on, "http.request", i) }, tr.full)
	tr.on.Store(false)
	printPhase(w, "one client, recording on", on.t, quarter)
	if spec.capacity > 0 {
		// Pairs of one name: the second request of a pair finds the name
		// the first one just cached, so its spans are a hit's.
		serial(quarter, func(i int) {
			s.call(&probe, seq[i%len(seq)])
			tr.on.Store(true)
			request(&probe, "http.request.hit", i)
			tr.on.Store(false)
		}, tr.full)
		printPhase(w, "hit probe, one client, pairs of one name", probe.t, quarter)
	}
	tr.link()
	res.count(off.t)
	res.count(on.t)
	res.count(probe.t)

	before, fwd0, err := s.tp.stats()
	if err != nil {
		return nil, err
	}
	open, err := openLoop(max(1, int(spec.rate*quarter.Seconds())), spec.rate, routedConns, call)
	if err != nil {
		return nil, err
	}
	printPhase(w, fmt.Sprintf("open loop %g/s, recording off", spec.rate), open.t, open.elapsed)
	res.count(open.t)
	after, fwd1, err := s.tp.stats()
	if err != nil {
		return nil, err
	}

	// Layer self times over the recorded requests.
	var client, routerSelf, serveSelf, profile, total, hitSelf []float64
	for root, kids := range tr.children() {
		r := tr.spans[root]
		rp, rok := kids["router.proxy"]
		sp, sok := kids["serve.replica"]
		pp, pok := kids["dcgm.profile"]
		if !rok || !sok || !pok {
			continue
		}
		switch r.Name {
		case "http.request":
			total = append(total, us(r.dur()))
			client = append(client, us(r.dur()-rp.dur()))
			routerSelf = append(routerSelf, us(rp.dur()-sp.dur()))
			serveSelf = append(serveSelf, us(sp.dur()-pp.dur()))
			profile = append(profile, us(pp.dur()))
		case "http.request.hit":
			hitSelf = append(hitSelf, us(sp.dur()-pp.dur()))
		}
	}
	if len(total) == 0 {
		return nil, fmt.Errorf("no complete request traces recorded")
	}
	table := []struct {
		name string
		xs   []float64
	}{{"http.client_us", client}, {"router.self_us", routerSelf}, {"serve.self_us", serveSelf}, {"dcgm.profile_us", profile}}
	totalP50 := median(total)
	sum := 0.0
	fmt.Fprintf(w, "per-layer self time over %d requests (p50 / p99 us):\n", len(total))
	for _, row := range table {
		p50 := median(row.xs)
		sum += p50
		res.put(row.name, p50)
		fmt.Fprintf(w, "  %-18s %9.2f %9.2f\n", row.name, p50, quantile(row.xs, 0.99))
	}
	closure := math.Abs(sum-totalP50) / totalP50 * 100
	fmt.Fprintf(w, "  %-18s %9.2f   (sum of self p50s %.2f; closure %.2f%%)\n", "request", totalP50, sum, closure)
	res.put("budget_closure_pct", closure)
	res.put("trace_overhead_pct", (totalP50-median(base))/median(base)*100)

	reqs := float64(open.t.attempted)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if hits+misses > 0 {
		res.put("core.plancache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	res.put("core.plancache.evictions_per_op", float64(after.Cache.Evictions-before.Cache.Evictions)/reqs)
	batch := 1.0
	if b := after.Batch.Batches - before.Batch.Batches; b > 0 {
		batch = float64(after.Batch.Batched-before.Batch.Batched) / float64(b)
		res.put("serve.batch_size_mean", batch)
	}
	var fwdSum, fwdMax uint64
	for i := range fwd1 {
		d := fwd1[i] - fwd0[i]
		fwdSum += d
		if d > fwdMax {
			fwdMax = d
		}
	}
	res.put("router.replica_share_max", float64(fwdMax)/float64(fwdSum))
	res.put("loadgen.late_p99_ms", quantile(open.late, 0.99))

	runs, err := catalogueRuns(int(math.Round(batch)))
	if err != nil {
		return nil, err
	}
	sweep, err := sweepProbe(s.sw, runs, quarter/8)
	if err != nil {
		return nil, err
	}
	res.put("core.sweep_us", sweep)
	fmt.Fprintf(w, "core sweep probe: %.2f us per PredictProfilesInto at batch %d\n", sweep, int(math.Round(batch)))
	if len(hitSelf) > 0 {
		wait := median(serveSelf) - median(hitSelf) - sweep
		res.put("serve.wait_us_est", wait)
		fmt.Fprintf(w, "serve self on a hit: p50 %.2f us over %d probes; estimated wait on a miss %.2f us\n", median(hitSelf), len(hitSelf), wait)
	}
	return res, tr.write(cfg.traceOut, cfg.workload)
}
