// Package fleet is a deterministic discrete-event simulation of a GPU
// cluster operated by the paper's online frequency selector: jobs arrive
// continuously (Poisson, Zipf-keyed, or bursty streams), each carrying a
// workload, a GPU count, and a deadline, onto hundreds of space-shared
// nodes. On every placement the planner resolves the job's predicted
// power/time curve through the shared core.PlanCache/Sweeper serving stack
// and assigns the lowest-energy operating point that still meets the
// job's deadline, falling back to the maximum clock (and a missed-deadline
// count) when none does — the setting of Ilager et al.'s data-driven
// deadline-aware scaling, driven by this repo's DNN-predicted curves.
//
// The engine is built to be measured: events are value records in a
// binary-heap slice ordered by (time, seq), job records recycle through a
// free-list, the backlog is a ring buffer, and every curve lookup is a
// binary search over a plan-cache-memoized index — after warmup the event
// loop performs zero heap allocations, which the engine verifies about
// itself (Result.LoopAllocs, measured with runtime.ReadMemStats around the
// steady segment).
//
// Determinism contract: a replication's outcome is a pure function of its
// seed. All randomness flows through one rand.Rand in a fixed draw order;
// event ties break on the monotone sequence number; nodes are scanned
// first-fit by index; the backlog is strictly FIFO. Parallelism never
// touches a running simulation — Config.Workers fans out independent
// replications (each seeded from the base seed and its replication index,
// each with its own plan cache) and aggregates them in replication order,
// so every Result is bit-identical for any worker count.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// Config parameterizes a simulation.
type Config struct {
	// Nodes is the cluster size. Default 128.
	Nodes int
	// GPUsPerNode is each node's GPU capacity. Default 4.
	GPUsPerNode int
	// MaxJobGPUs bounds a job's GPU request (drawn uniformly in
	// [1, MaxJobGPUs]). Default and cap: GPUsPerNode.
	MaxJobGPUs int
	// Rate is the mean arrival rate in jobs per simulated second.
	Rate float64
	// Dist selects the arrival stream: DistUniform, DistZipf, DistBursty.
	// Default DistUniform.
	Dist string
	// Slack sets each job's deadline to
	// arrival + Slack × (predicted time at max clock). Default 1.5.
	Slack float64
	// MaxArrivals stops the arrival stream after this many jobs.
	// Duration stops it at this simulated time. At least one must be set;
	// whichever triggers first ends the stream, and the simulation then
	// drains every queued and running job.
	MaxArrivals int
	Duration    float64
	// Seed is the base seed; replication r runs on Seed + r*1000003.
	Seed int64
	// Warmup is how many arrivals are processed before the steady-state
	// measurement window (allocation and event counters) opens. Default
	// min(1000, MaxArrivals/10) when MaxArrivals is set, else 1000.
	Warmup int
	// Prewarm resolves every catalogue run through the plan cache before
	// the event loop starts, so the loop itself observes only cache hits.
	Prewarm bool
	// Replications is how many independently seeded simulations to run.
	// Default 1.
	Replications int
	// Workers bounds how many replications run concurrently; 0 means
	// GOMAXPROCS, 1 means serial. Results never depend on it.
	Workers int

	// Objective ranks operating points inside the plan cache (default
	// EDP); Threshold is Algorithm 1's performance bound (negative =
	// unconstrained, the default); Quantum, Capacity and Shards configure
	// the per-replication plan cache as in core.PlanCacheConfig.
	Objective objective.Objective
	Threshold float64
	Quantum   float64
	Capacity  int
	Shards    int
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes == 0 {
		c.Nodes = 128
	}
	if c.Nodes < 1 {
		return c, fmt.Errorf("fleet: node count %d < 1", c.Nodes)
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 4
	}
	if c.GPUsPerNode < 1 {
		return c, fmt.Errorf("fleet: GPUs per node %d < 1", c.GPUsPerNode)
	}
	if c.MaxJobGPUs == 0 || c.MaxJobGPUs > c.GPUsPerNode {
		c.MaxJobGPUs = c.GPUsPerNode
	}
	if c.MaxJobGPUs < 1 {
		return c, fmt.Errorf("fleet: max job GPUs %d < 1", c.MaxJobGPUs)
	}
	if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return c, fmt.Errorf("fleet: arrival rate %v must be a positive finite number", c.Rate)
	}
	switch c.Dist {
	case "":
		c.Dist = DistUniform
	case DistUniform, DistZipf, DistBursty:
	default:
		return c, fmt.Errorf("fleet: unknown arrival distribution %q (want %s, %s or %s)", c.Dist, DistUniform, DistZipf, DistBursty)
	}
	if c.Slack == 0 {
		c.Slack = 1.5
	}
	if c.Slack < 0 {
		return c, fmt.Errorf("fleet: negative deadline slack %v", c.Slack)
	}
	if c.MaxArrivals < 0 {
		return c, fmt.Errorf("fleet: negative arrival bound %d", c.MaxArrivals)
	}
	if c.Duration < 0 {
		return c, fmt.Errorf("fleet: negative duration %v", c.Duration)
	}
	if c.MaxArrivals == 0 && c.Duration == 0 {
		return c, errors.New("fleet: set MaxArrivals or Duration (the stream must end)")
	}
	if c.Warmup == 0 {
		c.Warmup = 1000
		if c.MaxArrivals > 0 && c.MaxArrivals/10 < c.Warmup {
			c.Warmup = c.MaxArrivals / 10
		}
	}
	if c.Warmup < 0 {
		return c, fmt.Errorf("fleet: negative warmup %d", c.Warmup)
	}
	if c.Replications == 0 {
		c.Replications = 1
	}
	if c.Replications < 1 {
		return c, fmt.Errorf("fleet: replication count %d < 1", c.Replications)
	}
	if c.Objective == nil {
		c.Objective = objective.EDP{}
	}
	if c.Threshold == 0 {
		c.Threshold = -1
	}
	return c, nil
}

// RepResult is one replication's outcome. The deterministic fields
// (counts, energy, Digest) are pure functions of the replication seed;
// the measured fields (wall time, throughput, latencies, LoopAllocs)
// describe the host that ran it.
type RepResult struct {
	Seed int64

	Arrivals   int64 // jobs that entered the system
	Completed  int64 // jobs that ran to departure (always == Arrivals after drain)
	Missed     int64 // jobs whose predicted finish exceeded their deadline
	Backfilled int64 // jobs placed from the backlog rather than on arrival

	Hits, Misses uint64 // plan-cache counters over the event loop (prewarm excluded)

	EnergyJ    float64 // predicted energy across all jobs at assigned points
	MaxEnergyJ float64 // same jobs pinned at the always-max reference

	Events int64  // arrivals + departures processed
	Digest uint64 // FNV-1a over every job's outcome, departure order

	WallSec       float64 // event-loop wall time
	EventsPerSec  float64
	LoopAllocs    uint64 // heap allocations inside the steady segment
	SteadyEvents  int64  // events inside the steady segment
	P50DecisionNs int64  // per-arrival planning latency percentiles
	P99DecisionNs int64

	latencies []int64
}

// Result aggregates a simulation's replications (in replication order).
type Result struct {
	Reps []RepResult

	Arrivals, Completed, Missed, Backfilled int64
	Hits, Misses                            uint64
	EnergyJ, MaxEnergyJ                     float64
	Events                                  int64
	Digest                                  uint64 // FNV-1a over the replication digests, in order

	WallSec       float64 // summed replication wall time (single-threaded equivalent)
	EventsPerSec  float64 // Events / WallSec
	LoopAllocs    uint64
	SteadyEvents  int64
	P50DecisionNs int64 // percentiles over every replication's arrivals
	P99DecisionNs int64
}

// HitRatio returns the plan-cache hit fraction over the event loop.
func (r Result) HitRatio() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// EnergySavedPct returns the predicted energy saving versus running every
// job at the maximum clock, in percent.
func (r Result) EnergySavedPct() float64 {
	if r.MaxEnergyJ == 0 {
		return 0
	}
	return (r.MaxEnergyJ - r.EnergyJ) / r.MaxEnergyJ * 100
}

// MissRate returns the fraction of jobs that missed their deadline.
func (r Result) MissRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Completed)
}

// Sim is a configured simulation, ready to Run any number of times.
type Sim struct {
	sw   *core.Sweeper
	runs []dcgm.Run
	cfg  Config
}

// New validates the configuration and workload catalogue against the
// sweeper. Each catalogue run is collapsed to its mean sample once here —
// the mean of a single sample is itself, bit for bit, so plan-cache keys
// and selections are unchanged while the per-arrival key computation stops
// depending on the recorded sample count.
func New(sw *core.Sweeper, runs []dcgm.Run, cfg Config) (*Sim, error) {
	if sw == nil {
		return nil, errors.New("fleet: sweeper is required")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, errors.New("fleet: empty workload catalogue")
	}
	collapsed := make([]dcgm.Run, len(runs))
	for i, r := range runs {
		if err := sw.ValidateRun(r); err != nil {
			return nil, fmt.Errorf("fleet: catalogue run %d: %w", i, err)
		}
		cr := r
		cr.Samples = []dcgm.Sample{r.MeanSample()}
		collapsed[i] = cr
	}
	return &Sim{sw: sw, runs: collapsed, cfg: cfg}, nil
}

// Run executes every replication and aggregates their results in
// replication order. It is safe to call repeatedly; each call produces
// the same deterministic fields.
func (s *Sim) Run() (Result, error) {
	reps := make([]RepResult, s.cfg.Replications)
	errs := make([]error, s.cfg.Replications)

	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reps) {
		workers = len(reps)
	}
	if workers <= 1 {
		for i := range reps {
			reps[i], errs[i] = s.runRep(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					reps[i], errs[i] = s.runRep(i)
				}
			}()
		}
		for i := range reps {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	res := Result{Reps: reps, Digest: fnvOffset}
	var lats []int64
	for i := range reps {
		r := &reps[i]
		res.Arrivals += r.Arrivals
		res.Completed += r.Completed
		res.Missed += r.Missed
		res.Backfilled += r.Backfilled
		res.Hits += r.Hits
		res.Misses += r.Misses
		res.EnergyJ += r.EnergyJ
		res.MaxEnergyJ += r.MaxEnergyJ
		res.Events += r.Events
		res.WallSec += r.WallSec
		res.LoopAllocs += r.LoopAllocs
		res.SteadyEvents += r.SteadyEvents
		res.Digest = fnvMix(res.Digest, r.Digest)
		lats = append(lats, r.latencies...)
		r.latencies = nil
	}
	if res.WallSec > 0 {
		res.EventsPerSec = float64(res.Events) / res.WallSec
	}
	res.P50DecisionNs, res.P99DecisionNs = latencyPercentiles(lats)
	return res, nil
}

// engine is one replication's mutable state.
type engine struct {
	sim *Sim
	pc  *core.PlanCache

	gen     *arrivalGen
	rng     *rand.Rand
	heap    eventHeap
	nodes   []int32 // free GPUs per node
	jobs    []job
	free    []int32
	backlog intRing

	now        float64
	arrivals   int64
	completed  int64
	missed     int64
	backfilled int64
	energyJ    float64
	refJ       float64
	digest     uint64
	latencies  []int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a accumulator, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func (s *Sim) runRep(rep int) (RepResult, error) {
	cfg := s.cfg
	seed := cfg.Seed + int64(rep)*1000003
	rng := rand.New(rand.NewSource(seed))
	gen, err := newArrivalGen(cfg.Dist, cfg.Rate, len(s.runs), rng)
	if err != nil {
		return RepResult{}, err
	}
	pc, err := core.NewPlanCache(s.sw, core.PlanCacheConfig{
		Objective: cfg.Objective,
		Threshold: cfg.Threshold,
		Quantum:   cfg.Quantum,
		Capacity:  cfg.Capacity,
		Shards:    cfg.Shards,
		Derive: func(profiles []objective.Profile, sel core.Selection) any {
			return BuildCurve(profiles, sel)
		},
	})
	if err != nil {
		return RepResult{}, err
	}

	slots := cfg.Nodes * cfg.GPUsPerNode
	latCap := cfg.MaxArrivals
	if latCap == 0 {
		latCap = int(cfg.Rate*cfg.Duration*5/4) + 1024
	}
	e := &engine{
		sim:       s,
		pc:        pc,
		gen:       gen,
		rng:       rng,
		nodes:     make([]int32, cfg.Nodes),
		jobs:      make([]job, 0, slots+1024),
		free:      make([]int32, 0, slots+1024),
		digest:    fnvOffset,
		latencies: make([]int64, 0, latCap),
	}
	e.heap.ev = make([]event, 0, slots+8)
	e.backlog.buf = make([]int32, 1024)
	for i := range e.nodes {
		e.nodes[i] = int32(cfg.GPUsPerNode)
	}

	if cfg.Prewarm {
		for _, r := range s.runs {
			if _, _, _, err := pc.Select(context.Background(), r); err != nil {
				return RepResult{}, fmt.Errorf("fleet: prewarm: %w", err)
			}
		}
	}
	base := pc.Stats()

	// The event loop. One pending arrival event lives in the heap at a
	// time; processing it draws the next. Departures free GPUs and pull
	// from the FIFO backlog.
	t0, key0 := gen.next(0)
	if cfg.Duration == 0 || t0 <= cfg.Duration {
		e.heap.push(t0, evArrival, key0)
	}

	var (
		events      int64
		snapped     bool
		memBefore   runtime.MemStats
		memAfter    runtime.MemStats
		steadyStart int64
		selErr      error
	)
	start := time.Now()
	for len(e.heap.ev) > 0 {
		ev := e.heap.pop()
		e.now = ev.t
		events++
		if ev.kind == evArrival {
			// ev.job carries the workload key for arrival events.
			if err := e.arrive(ev.job); err != nil {
				selErr = err
				break
			}
			if e.arrivals < int64(cfg.MaxArrivals) || cfg.MaxArrivals == 0 {
				nt, nk := gen.next(e.now)
				if cfg.Duration == 0 || nt <= cfg.Duration {
					e.heap.push(nt, evArrival, nk)
				}
			}
			if !snapped && e.arrivals >= int64(cfg.Warmup) {
				snapped = true
				runtime.ReadMemStats(&memBefore)
				steadyStart = events
			}
		} else {
			e.depart(ev.job)
		}
	}
	wall := time.Since(start)
	if selErr != nil {
		return RepResult{}, selErr
	}
	runtime.ReadMemStats(&memAfter)

	stats := pc.Stats()
	r := RepResult{
		Seed:       seed,
		Arrivals:   e.arrivals,
		Completed:  e.completed,
		Missed:     e.missed,
		Backfilled: e.backfilled,
		Hits:       stats.Hits - base.Hits,
		Misses:     stats.Misses - base.Misses,
		EnergyJ:    e.energyJ,
		MaxEnergyJ: e.refJ,
		Events:     events,
		Digest:     e.digest,
		WallSec:    wall.Seconds(),
		latencies:  e.latencies,
	}
	if snapped {
		r.LoopAllocs = memAfter.Mallocs - memBefore.Mallocs
		r.SteadyEvents = events - steadyStart
	}
	if r.WallSec > 0 {
		r.EventsPerSec = float64(events) / r.WallSec
	}
	r.P50DecisionNs, r.P99DecisionNs = latencyPercentiles(e.latencies)
	return r, nil
}

// arrive admits one job: resolve its plan curve through the cache, stamp
// its deadline, and either place it immediately or append it to the FIFO
// backlog.
func (e *engine) arrive(key int32) error {
	cfg := &e.sim.cfg
	t0 := time.Now()
	_, derived, _, err := e.pc.Select(context.Background(), e.sim.runs[key])
	lat := time.Since(t0)
	if err != nil {
		return fmt.Errorf("fleet: planning arrival %d: %w", e.arrivals, err)
	}
	if len(e.latencies) < cap(e.latencies) {
		e.latencies = append(e.latencies, int64(lat))
	}
	curve := derived.(*Curve)

	gpus := int32(1)
	if cfg.MaxJobGPUs > 1 {
		gpus = 1 + int32(e.rng.Intn(cfg.MaxJobGPUs))
	}

	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.jobs = append(e.jobs, job{})
		slot = int32(len(e.jobs) - 1)
	}
	j := &e.jobs[slot]
	*j = job{
		id:       e.arrivals,
		key:      key,
		gpus:     gpus,
		node:     -1,
		curve:    curve,
		arrive:   e.now,
		deadline: e.now + cfg.Slack*curve.ref.TimeSec,
	}
	e.arrivals++

	if !e.place(slot) {
		j.queued = true
		e.backlog.push(slot)
	}
	return nil
}

// place finds the lowest-index node with enough free GPUs, picks the
// job's operating point against its remaining deadline budget, and
// schedules the departure. It reports false when no node fits.
func (e *engine) place(slot int32) bool {
	j := &e.jobs[slot]
	node := int32(-1)
	for i := range e.nodes {
		if e.nodes[i] >= j.gpus {
			node = int32(i)
			break
		}
	}
	if node < 0 {
		return false
	}
	e.nodes[node] -= j.gpus
	j.node = node
	j.start = e.now

	p, feasible := j.curve.Choose(j.deadline - e.now)
	j.freq = p.FreqMHz
	j.memFreq = p.MemFreqMHz
	j.finish = e.now + p.TimeSec
	j.missed = !feasible || j.finish > j.deadline
	g := float64(j.gpus)
	j.energyJ = p.TimeSec * p.PowerWatts * g
	j.refJ = j.curve.ref.TimeSec * j.curve.ref.PowerWatts * g
	e.heap.push(j.finish, evDeparture, slot)
	return true
}

// depart retires a finished job — outcome accounting, digest fold, GPU
// release — then backfills the FIFO backlog head-first until a job does
// not fit (strict FIFO: the engine never skips past a blocked head).
func (e *engine) depart(slot int32) {
	j := &e.jobs[slot]
	e.completed++
	if j.missed {
		e.missed++
	}
	if j.queued {
		e.backfilled++
	}
	e.energyJ += j.energyJ
	e.refJ += j.refJ

	h := e.digest
	h = fnvMix(h, uint64(j.id))
	h = fnvMix(h, uint64(j.key))
	h = fnvMix(h, uint64(j.gpus))
	h = fnvMix(h, uint64(j.node))
	h = fnvMix(h, math.Float64bits(j.start))
	h = fnvMix(h, math.Float64bits(j.finish))
	h = fnvMix(h, math.Float64bits(j.freq))
	h = fnvMix(h, math.Float64bits(j.memFreq))
	var missBit uint64
	if j.missed {
		missBit = 1
	}
	e.digest = fnvMix(h, missBit)

	e.nodes[j.node] += j.gpus
	e.free = append(e.free, slot)

	for e.backlog.len() > 0 {
		head := e.backlog.peek()
		if !e.place(head) {
			break
		}
		e.backlog.pop()
	}
}

// latencyPercentiles returns the p50 and p99 of the recorded per-arrival
// planning latencies, in nanoseconds.
func latencyPercentiles(lats []int64) (p50, p99 int64) {
	if len(lats) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pick := func(q float64) int64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return pick(0.50), pick(0.99)
}
