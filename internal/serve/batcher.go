// Package serve is the concurrent serving layer over the paper's online
// phase: the machinery that makes frequency selection scale with cores and
// request load instead of executing strictly per request.
//
// Three pieces compose:
//
//   - Batcher coalesces concurrent design-space sweeps into fused forward
//     passes: B pending requests become one (B·61)×features matrix through
//     the pooled nn.Predictor, amortizing per-layer traversal across
//     requests. It is work-conserving: a pass runs as soon as the
//     dispatcher is free, over whatever is queued by then, so a lone
//     request never waits for company. The fused results are bit-identical
//     to the per-request sweep at any batch size
//     (core.Sweeper.PredictProfilesInto's contract), so batching is purely
//     a throughput decision.
//
//   - Server wires the batcher under core.PlanCache's sharded, singleflight
//     miss path: hits stay lock-striped and allocation-light, misses fuse.
//
//   - NewHandler exposes the server over HTTP/JSON (/v1/select,
//     /v1/profile, /v1/stats) for cmd/dvfs-served.
//
// Overload semantics are explicit everywhere: the batcher's queue is
// bounded, a full queue sheds the request immediately with ErrOverloaded
// (never unbounded buffering), and the HTTP layer maps that to 429.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// Shedding and lifecycle errors. ErrOverloaded is the bounded queue's
// backpressure signal — callers (and HTTP 429 mapping) treat it as "retry
// later", never as a broken server.
var (
	ErrOverloaded = errors.New("serve: sweep queue full (overloaded, retry later)")
	ErrClosed     = errors.New("serve: batcher closed")
)

// BatcherConfig tunes the micro-batcher. The zero value selects defaults.
type BatcherConfig struct {
	// MaxBatch is the most requests fused into one forward pass.
	// Default 16.
	MaxBatch int
	// QueueDepth bounds the pending-request queue; a submit beyond it is
	// shed with ErrOverloaded. 0 means 4·MaxBatch.
	QueueDepth int
}

func (c BatcherConfig) withDefaults() (BatcherConfig, error) {
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatch < 1 {
		return c, fmt.Errorf("serve: max batch %d < 1", c.MaxBatch)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("serve: queue depth %d < 1", c.QueueDepth)
	}
	return c, nil
}

// BatcherStats counts batcher activity. All fields are monotone counters
// except MaxBatch, a high-watermark.
type BatcherStats struct {
	Requests uint64 // sweep requests accepted into the queue
	Batches  uint64 // fused forward passes executed
	Batched  uint64 // requests served by those passes
	Shed     uint64 // requests rejected with ErrOverloaded
	Canceled uint64 // accepted requests abandoned before processing
	MaxBatch int    // largest fused batch observed
}

// sweepReq states: the submitter and the dispatcher race on who owns the
// request next, settled by one CAS on state.
const (
	reqQueued   int32 = iota // in the queue, either side may take it
	reqCanceled              // submitter gave up (ctx done / close) before claim
	reqClaimed               // dispatcher owns it; done will be closed
)

// sweepReq is one queued sweep. profiles is a batcher-pooled buffer; it
// returns to the pool by whichever side is responsible after the state
// race resolves.
type sweepReq struct {
	run      dcgm.Run
	profiles []objective.Profile
	clamped  core.Clamps
	err      error
	state    atomic.Int32
	done     chan struct{}
}

// testHookBeforeBatch, when set, runs in the dispatcher just before each
// fused pass. Tests use it to stall the dispatcher deterministically so the
// bounded queue fills and shedding can be asserted rather than hoped for.
// Set it only before the first submit and restore it after Close.
var testHookBeforeBatch func(batchSize int)

// Batcher coalesces concurrent design-space sweeps into fused forward
// passes over one core.Sweeper. Safe for any number of concurrent
// submitters; one dispatcher goroutine forms and executes batches.
type Batcher struct {
	sw  *core.Sweeper
	cfg BatcherConfig

	q         chan *sweepReq
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	bufPool   sync.Pool // []objective.Profile of len sw.GridSize()

	requests atomic.Uint64
	batches  atomic.Uint64
	batched  atomic.Uint64
	shed     atomic.Uint64
	canceled atomic.Uint64
	maxBatch atomic.Int64
}

// NewBatcher starts a micro-batcher over sw. Close it when done.
func NewBatcher(sw *core.Sweeper, cfg BatcherConfig) (*Batcher, error) {
	if sw == nil {
		return nil, errors.New("serve: batcher needs a sweeper")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &Batcher{
		sw:   sw,
		cfg:  cfg,
		q:    make(chan *sweepReq, cfg.QueueDepth),
		quit: make(chan struct{}),
	}
	nGrid := sw.GridSize()
	b.bufPool.New = func() any { return make([]objective.Profile, nGrid) }
	b.wg.Add(1)
	go b.dispatch()
	return b, nil
}

// Close stops the dispatcher and fails any still-queued requests with
// ErrClosed. It is idempotent and safe against concurrent submitters:
// a submit racing with Close returns ErrClosed rather than hanging.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.quit) })
	b.wg.Wait()
}

// QueueLen reports how many sweep requests are queued right now — the
// backlog gauge behind the metrics endpoint. Inherently racy (a request
// can queue or drain between the read and its use), which is all a gauge
// promises.
func (b *Batcher) QueueLen() int { return len(b.q) }

// Stats returns a snapshot of the batcher counters (atomics only; never
// blocks the dispatch or submit paths).
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Requests: b.requests.Load(),
		Batches:  b.batches.Load(),
		Batched:  b.batched.Load(),
		Shed:     b.shed.Load(),
		Canceled: b.canceled.Load(),
		MaxBatch: int(b.maxBatch.Load()),
	}
}

// PredictProfileInto queues one design-space sweep for maxRun, waits for
// the fused pass that includes it, and writes the profiles into dst (which
// must have sw.GridSize() entries). The written values are bit-identical
// to core.Sweeper.PredictProfileInto for the same run.
//
// If the queue is full the request is shed immediately with ErrOverloaded.
// If ctx is done while the request is still queued, the call returns
// ctx.Err() without waiting; once a pass has claimed the request the call
// waits for that pass (bounded by one batch) and returns its result.
func (b *Batcher) PredictProfileInto(ctx context.Context, dst []objective.Profile, maxRun dcgm.Run) (core.Clamps, error) {
	if err := b.sw.ValidateRun(maxRun); err != nil {
		return core.Clamps{}, err
	}
	if len(dst) != b.sw.GridSize() {
		return core.Clamps{}, fmt.Errorf("serve: profile buffer has %d entries, sweep has %d design points", len(dst), b.sw.GridSize())
	}
	if err := ctx.Err(); err != nil {
		return core.Clamps{}, err
	}
	select {
	case <-b.quit:
		return core.Clamps{}, ErrClosed
	default:
	}
	r := &sweepReq{
		run:      maxRun,
		profiles: b.bufPool.Get().([]objective.Profile),
		done:     make(chan struct{}),
	}
	select {
	case b.q <- r:
	default:
		b.bufPool.Put(r.profiles) //nolint:staticcheck // slice header alloc is fine here
		b.shed.Add(1)
		return core.Clamps{}, ErrOverloaded
	}
	b.requests.Add(1)

	select {
	case <-r.done:
	case <-ctx.Done():
		if r.state.CompareAndSwap(reqQueued, reqCanceled) {
			// Still queued: the dispatcher will see the tombstone and
			// recycle the buffer.
			b.canceled.Add(1)
			return core.Clamps{}, ctx.Err()
		}
		<-r.done // claimed: the pass is already running, take its result
	case <-b.quit:
		if r.state.CompareAndSwap(reqQueued, reqCanceled) {
			b.canceled.Add(1)
			return core.Clamps{}, ErrClosed
		}
		<-r.done
	}
	if r.err != nil {
		b.bufPool.Put(r.profiles) //nolint:staticcheck
		return core.Clamps{}, r.err
	}
	copy(dst, r.profiles)
	clamped := r.clamped
	b.bufPool.Put(r.profiles) //nolint:staticcheck
	return clamped, nil
}

// claim moves a dequeued request into the dispatcher's ownership. A false
// return means the submitter canceled it first; the dispatcher recycles
// the buffer and drops it.
func (b *Batcher) claim(r *sweepReq) bool {
	if r.state.CompareAndSwap(reqQueued, reqClaimed) {
		return true
	}
	b.bufPool.Put(r.profiles) //nolint:staticcheck
	return false
}

// dispatch is the batching loop: take one request, claim whatever else is
// already queued up to MaxBatch, run the fused pass, repeat. It never
// waits for company: requests that arrive during a pass queue up and fuse
// into the next one, so batches form under load and a lone request runs
// at once. On quit it fails whatever is left in the queue.
func (b *Batcher) dispatch() {
	defer b.wg.Done()
	batch := make([]*sweepReq, 0, b.cfg.MaxBatch)
	dsts := make([][]objective.Profile, 0, b.cfg.MaxBatch)
	runs := make([]dcgm.Run, 0, b.cfg.MaxBatch)
	clamped := make([]core.Clamps, b.cfg.MaxBatch)
	for {
		var first *sweepReq
		select {
		case first = <-b.q:
		case <-b.quit:
			b.drain()
			return
		}
		if !b.claim(first) {
			continue
		}
		batch = append(batch[:0], first)
		b.gather(&batch)
		b.process(batch, &dsts, &runs, clamped)
	}
}

// gather fills *batch (already holding its first claimed request) up to
// MaxBatch with requests that are already queued, without blocking.
func (b *Batcher) gather(batch *[]*sweepReq) {
	for len(*batch) < b.cfg.MaxBatch {
		select {
		case r := <-b.q:
			if b.claim(r) {
				*batch = append(*batch, r)
			}
		default:
			return
		}
	}
}

// process runs one fused pass and completes every request in the batch.
func (b *Batcher) process(batch []*sweepReq, dsts *[][]objective.Profile, runs *[]dcgm.Run, clamped []core.Clamps) {
	if hook := testHookBeforeBatch; hook != nil {
		hook(len(batch))
	}
	*dsts = (*dsts)[:0]
	*runs = (*runs)[:0]
	for _, r := range batch {
		*dsts = append(*dsts, r.profiles)
		*runs = append(*runs, r.run)
	}
	err := b.sw.PredictProfilesInto(*dsts, clamped[:len(batch)], *runs)
	for i, r := range batch {
		if err != nil {
			r.err = err
		} else {
			r.clamped = clamped[i]
		}
		close(r.done)
	}
	b.batches.Add(1)
	b.batched.Add(uint64(len(batch)))
	for {
		cur := b.maxBatch.Load()
		if int64(len(batch)) <= cur || b.maxBatch.CompareAndSwap(cur, int64(len(batch))) {
			break
		}
	}
}

// drain fails everything still queued at close time.
func (b *Batcher) drain() {
	for {
		select {
		case r := <-b.q:
			if b.claim(r) {
				r.err = ErrClosed
				close(r.done)
			}
		default:
			return
		}
	}
}
