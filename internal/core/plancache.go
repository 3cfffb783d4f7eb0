package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// SweepFunc computes one design-space sweep for a profiling run, writing
// one profile per design point into dst and returning the per-axis clamp
// counts — the contract of Sweeper.PredictProfileInto lifted into a
// function value so serving layers can reroute cache misses (e.g. through
// a micro-batcher) without the cache knowing. Any replacement must be
// bit-identical to the direct sweeper path, or cached selections stop
// matching the unbatched formulation.
type SweepFunc func(ctx context.Context, dst []objective.Profile, maxRun dcgm.Run) (Clamps, error)

// PlanCacheConfig configures a PlanCache.
type PlanCacheConfig struct {
	// Objective ranks candidate frequencies (required).
	Objective objective.Objective
	// Threshold is Algorithm 1's performance bound; negative selects the
	// unconstrained optimum.
	Threshold float64
	// Quantum is the feature-quantization bucket width. Two profiling runs
	// whose mean feature vectors fall in the same bucket in every dimension
	// share a cache entry; two runs that differ by more than the quantum in
	// any dimension never do. Pick a value at or below the workload-drift
	// tolerance you consider "the same workload". Default 0.1.
	Quantum float64
	// Capacity bounds the total number of memoized selections across all
	// shards; each shard holds an LRU-bounded ceil(Capacity/Shards) slice
	// of it. Default 1024.
	Capacity int
	// Shards is the number of lock-striped shards the cache is split into,
	// rounded up to a power of two. Concurrent Selects whose keys hash to
	// different shards never contend on a mutex. Default 16; set 1 to
	// restore a single global LRU order (exact-capacity eviction).
	Shards int
	// Sweep overrides how a cache miss computes its profile sweep; nil uses
	// the cache's sweeper directly (PredictProfileInto). internal/serve
	// injects its micro-batched sweep here.
	Sweep SweepFunc
	// Derive, when set, is called once per miss — after the sweep and
	// selection succeed — with the predicted profiles and the chosen
	// selection, and its return value is memoized alongside the entry.
	// Select hands the payload back on every hit without recomputing it,
	// which is how an online planner (the fleet simulator's
	// deadline-feasibility curve) rides the cache without copying profiles
	// per request. The profiles slice is owned by the cache entry: Derive
	// may read it and keep references, but must not modify it.
	Derive func(profiles []objective.Profile, sel Selection) any
}

func (c PlanCacheConfig) withDefaults() (PlanCacheConfig, error) {
	if c.Objective == nil {
		return c, errors.New("core: PlanCacheConfig.Objective is required")
	}
	if c.Quantum == 0 {
		c.Quantum = 0.1
	}
	if c.Quantum < 0 {
		return c, fmt.Errorf("core: negative plan-cache quantum %v", c.Quantum)
	}
	if c.Capacity == 0 {
		c.Capacity = 1024
	}
	if c.Capacity < 1 {
		return c, fmt.Errorf("core: plan-cache capacity %d < 1", c.Capacity)
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Shards < 1 {
		return c, fmt.Errorf("core: plan-cache shard count %d < 1", c.Shards)
	}
	if c.Shards > 1<<16 {
		return c, fmt.Errorf("core: plan-cache shard count %d > %d", c.Shards, 1<<16)
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	return c, nil
}

// PlanCacheStats counts cache activity.
type PlanCacheStats struct {
	Hits, Misses, Evictions uint64
}

// planEntry is one singleflight-memoized selection: the first caller for a
// key computes under the entry's once while concurrent callers for the
// same key wait on it instead of predicting redundantly. done flips to
// true (under the once) when the fields below it are final, so the hit
// path can skip once.Do entirely — building the once closure would
// otherwise be the hit path's only heap allocation.
type planEntry struct {
	key  string
	elem *list.Element

	once    sync.Once
	done    atomic.Bool
	sel     Selection
	clamped Clamps
	derived any // PlanCacheConfig.Derive's payload, nil when unset
	err     error
}

// planShard is one lock stripe: a bounded LRU slice of the key space with
// its own counters. The counters are atomics so aggregate Stats() reads
// never take (or wait on) a shard mutex.
type planShard struct {
	mu      sync.Mutex // guards entries/lru, never held during prediction
	entries map[string]*planEntry
	lru     *list.List // of *planEntry, front = most recent

	hits, misses, evictions atomic.Uint64
}

// PlanCache memoizes online frequency selections for a fixed (target,
// frequency list, objective, threshold), keyed by the profiling run's
// quantized mean feature vector. Workloads of the same computational
// character — features within one quantization bucket — resolve to one
// cached Selection; the underlying sweep+selection runs once per bucket,
// guarded by a per-key singleflight. The key space is split across
// lock-striped shards (key hash → shard), so concurrent Selects on
// distinct applications contend only when their keys share a shard; each
// shard is independently LRU-bounded. The cache is safe for concurrent
// use, and all counters are atomic: Stats() never blocks the serve path.
type PlanCache struct {
	sweeper *Sweeper
	cfg     PlanCacheConfig
	sweep   SweepFunc
	prefix  string // arch + objective + threshold, shared by every key

	shards   []planShard
	mask     uint64 // len(shards)-1, shard count is a power of two
	shardCap int    // per-shard LRU bound, ceil(Capacity/Shards)
}

// A key is built in stack arrays of these sizes: the unquantized feature
// vector and the key bytes. Building it on the stack (and looking entries
// up by the byte form of the key) makes the hit path free of heap
// allocations on any number of cores; only a miss materializes the key as
// a string. A sync.Pool workspace would not: its caches are per-P, so a
// goroutine that moves to another P, or runs after a GC cleared the pool,
// refills it on the hit path. Models with more features, or keys with a
// longer prefix, spill to the heap and stay correct.
const (
	keyStackFeatures = 16
	keyStackBytes    = 256
)

// NewPlanCache builds a plan cache over a sweeper.
func NewPlanCache(s *Sweeper, cfg PlanCacheConfig) (*PlanCache, error) {
	if s == nil {
		return nil, errors.New("core: plan cache needs a sweeper")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// A grid sweeper's key prefix carries its memory-clock list: two caches
	// over the same target but different mem axes memoize different plans.
	// A core-only sweeper (nil mem list) contributes nothing here, keeping
	// its keys byte-identical to the historical 1-D formulation.
	prefix := s.target.Name + "|" + cfg.Objective.Name() + "|" + strconv.FormatFloat(cfg.Threshold, 'g', -1, 64) + "|"
	if mf := s.MemFreqs(); mf != nil {
		prefix += "mem"
		for _, m := range mf {
			prefix += ":" + strconv.FormatFloat(m, 'g', -1, 64)
		}
		prefix += "|"
	}
	c := &PlanCache{
		sweeper:  s,
		cfg:      cfg,
		sweep:    cfg.Sweep,
		prefix:   prefix,
		shards:   make([]planShard, cfg.Shards),
		mask:     uint64(cfg.Shards - 1),
		shardCap: (cfg.Capacity + cfg.Shards - 1) / cfg.Shards,
	}
	if c.sweep == nil {
		c.sweep = func(_ context.Context, dst []objective.Profile, maxRun dcgm.Run) (Clamps, error) {
			return s.PredictProfileInto(dst, maxRun)
		}
	}
	for i := range c.shards {
		c.shards[i].entries = map[string]*planEntry{}
		c.shards[i].lru = list.New()
	}
	return c, nil
}

// quantizeFeature maps a feature value to its bucket index under quantum q.
// Buckets are half-open [k·q, (k+1)·q): values that differ by more than q
// (beyond float-division rounding slop) can never share a bucket, while a
// ±1 ulp perturbation can only change the bucket when the value sits at a
// bucket boundary. Non-finite and out-of-range values collapse to sentinel
// buckets so a pathological sample cannot produce an unbounded key space.
func quantizeFeature(v, q float64) int64 {
	r := math.Floor(v / q)
	switch {
	case math.IsNaN(r):
		return math.MinInt64
	case r > 1e18:
		return math.MaxInt64
	case r < -1e18:
		return math.MinInt64 + 1
	}
	return int64(r)
}

// Quantize maps a feature value to its bucket index under quantum q — the
// plan-key quantizer exported for fingerprint schemes that must bucket
// exactly like plan keys (the governor's phase cache), so one quantization
// discipline governs every memoization layer: values that differ by more
// than q never share a bucket, a ±1 ulp perturbation moves the bucket by
// at most one, and pathological inputs collapse to sentinel buckets.
func Quantize(v, q float64) int64 { return quantizeFeature(v, q) }

// appendKey appends the cache key for a profiling run's mean sample — the
// shared (arch, objective, threshold) prefix plus the quantized feature
// vector — to dst and returns it. The byte form is what the hot path
// hashes and looks up; only a miss copies it into an immutable string.
func (c *PlanCache) appendKey(dst []byte, mean dcgm.Sample) ([]byte, error) {
	features := c.sweeper.models.Features
	var stack [keyStackFeatures]float64
	var base []float64
	if len(features) <= len(stack) {
		base = stack[:len(features)]
	} else {
		base = make([]float64, len(features))
	}
	if err := dataset.FeatureVectorInto(base, features, mean, c.sweeper.target.MaxFreqMHz, c.sweeper.target.MaxFreqMHz); err != nil {
		return nil, err
	}
	dst = append(dst, c.prefix...)
	for _, v := range base {
		dst = strconv.AppendInt(dst, quantizeFeature(v, c.cfg.Quantum), 36)
		dst = append(dst, ',')
	}
	return dst, nil
}

// keyFor is the allocating convenience form of appendKey (tests, Clamped).
func (c *PlanCache) keyFor(mean dcgm.Sample) (string, error) {
	key, err := c.appendKey(nil, mean)
	return string(key), err
}

// KeyHash is the FNV-1a 64 hash the plan cache stripes its key space
// with, exported so key-affine layers above the cache (the scale-out
// router's consistent-hash ring) place work with the same function the
// shards use — one hash family from the router ring down to the lock
// stripe. It allocates nothing.
func KeyHash(key []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// shardFor hashes a key onto its lock stripe. The quantized feature
// digits at the key's tail carry the workload identity, so same-prefix
// keys still spread across shards.
func (c *PlanCache) shardFor(key []byte) *planShard {
	return &c.shards[KeyHash(key)&c.mask]
}

// Select returns the frequency selection for a profiling run, serving
// repeated queries for same-character workloads from the cache. derived
// is the PlanCacheConfig.Derive payload memoized for the run's bucket
// (nil when Derive is unset), so an online planner gets its per-bucket
// structure back on hits without touching the profiles. hit reports
// whether the selection was memoized; the Selection returned on a hit is
// identical to the one the original computation produced.
//
// ctx is handed to the cache's sweep function on a miss: a batched sweep
// uses it to abandon a request that is still queued. Callers that lose
// the per-key singleflight race wait for the winning computation
// regardless (its duration is bounded by the sweep, including any
// queueing in front of it).
func (c *PlanCache) Select(ctx context.Context, maxRun dcgm.Run) (sel Selection, derived any, hit bool, err error) {
	if err := c.sweeper.ValidateRun(maxRun); err != nil {
		return Selection{}, nil, false, err
	}
	var stack [keyStackBytes]byte
	kb, err := c.appendKey(stack[:0], maxRun.MeanSample())
	if err != nil {
		return Selection{}, nil, false, err
	}

	sh := c.shardFor(kb)
	sh.mu.Lock()
	// The map index expression over string(kb) does not allocate: the
	// compiler looks the byte slice up directly. Only a miss pays for the
	// string conversion.
	e, hit := sh.entries[string(kb)]
	if hit {
		sh.lru.MoveToFront(e.elem)
		sh.hits.Add(1)
	} else {
		e = &planEntry{key: string(kb)}
		e.elem = sh.lru.PushFront(e)
		sh.entries[e.key] = e
		sh.misses.Add(1)
		for sh.lru.Len() > c.shardCap {
			back := sh.lru.Back()
			old := back.Value.(*planEntry)
			sh.lru.Remove(back)
			delete(sh.entries, old.key)
			sh.evictions.Add(1)
		}
	}
	sh.mu.Unlock()

	// done is only stored (under the once) after every entry field is
	// final, so a true load proves the fields are readable without entering
	// once.Do — whose closure would be the hit path's only allocation.
	if !e.done.Load() {
		e.once.Do(func() {
			defer e.done.Store(true)
			profiles := make([]objective.Profile, c.sweeper.GridSize())
			clamped, perr := c.sweep(ctx, profiles, maxRun)
			if perr != nil {
				e.err = perr
				return
			}
			e.clamped = clamped
			e.sel, e.err = SelectFrequency(profiles, c.cfg.Objective, c.cfg.Threshold)
			if e.err == nil && c.cfg.Derive != nil {
				e.derived = c.cfg.Derive(profiles, e.sel)
			}
		})
	}
	if e.err != nil {
		// Drop the failed entry so a transient error (including an
		// overloaded or canceled batched sweep) does not poison the bucket
		// for later callers.
		sh.mu.Lock()
		if cur, ok := sh.entries[e.key]; ok && cur == e {
			sh.lru.Remove(e.elem)
			delete(sh.entries, e.key)
		}
		sh.mu.Unlock()
		return Selection{}, nil, false, e.err
	}
	return e.sel, e.derived, hit, nil
}

// Clamped returns the per-axis clamp counts recorded when the given run's
// bucket was computed, and whether that bucket is currently cached.
func (c *PlanCache) Clamped(maxRun dcgm.Run) (Clamps, bool) {
	key, err := c.keyFor(maxRun.MeanSample())
	if err != nil {
		return Clamps{}, false
	}
	sh := c.shardFor([]byte(key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		return e.clamped, true
	}
	return Clamps{}, false
}

// Stats returns a snapshot of the aggregate cache counters. It reads only
// atomics — no shard mutex is taken — so a Stats poller can never block
// (or be blocked by) the serve path.
func (c *PlanCache) Stats() PlanCacheStats {
	var s PlanCacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
	}
	return s
}

// ShardStats returns one counter snapshot per shard, in shard order —
// visibility into key-space skew across the lock stripes.
func (c *PlanCache) ShardStats() []PlanCacheStats {
	out := make([]PlanCacheStats, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		out[i] = PlanCacheStats{Hits: sh.hits.Load(), Misses: sh.misses.Load(), Evictions: sh.evictions.Load()}
	}
	return out
}

// Shards returns the cache's shard count (after power-of-two rounding).
func (c *PlanCache) Shards() int { return len(c.shards) }

// Len returns the number of memoized selections across all shards.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
