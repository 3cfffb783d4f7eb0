package serve

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sync"
	"testing"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
)

// testModels builds paper-shaped (3-64-64-64-1) models with deterministic
// random weights. Bit-identity and concurrency contracts hold for any
// weights, so skipping training keeps the suite fast.
func testModels(t testing.TB) *core.Models {
	t.Helper()
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
}

func testSweeper(t testing.TB) *core.Sweeper {
	t.Helper()
	arch := sim.GA100().Spec()
	sw, err := testModels(t).NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// syntheticRun fabricates a max-clock profiling run with exact feature
// values so differential tests control cache-bucket placement.
func syntheticRun(fp, dram float64) dcgm.Run {
	return dcgm.Run{
		FreqMHz:     1410,
		ExecTimeSec: 1,
		Samples: []dcgm.Sample{{
			FP32Active:    fp,
			DRAMActive:    dram,
			SMAppClockMHz: 1410,
		}},
	}
}

func uniqueRuns(n int) []dcgm.Run {
	runs := make([]dcgm.Run, n)
	for i := range runs {
		runs[i] = syntheticRun(0.05+0.17*float64(i%257), 0.10+0.19*float64(i/257))
	}
	return runs
}

func profilesIdentical(a, b []objective.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// holdPasses makes every fused pass wait until release is closed, so
// submits made while the first pass is held queue up and fuse into the
// passes after it. The returned function reports the size of every pass
// so far, in order.
func holdPasses(t *testing.T, release <-chan struct{}) (sizes func() []int) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen []int
	)
	testHookBeforeBatch = func(size int) {
		<-release
		mu.Lock()
		seen = append(seen, size)
		mu.Unlock()
	}
	t.Cleanup(func() { testHookBeforeBatch = nil })
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), seen...)
	}
}

// waitQueued polls until the batcher has accepted n requests.
func waitQueued(t *testing.T, b *Batcher, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Requests < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests queued: %+v", b.Stats().Requests, n, b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherMatchesDirectSweep: results through the batcher are
// bit-identical to the direct per-request sweep at batch sizes 1, 7, 64 —
// the differential acceptance criterion. The first pass is stalled until
// every submit is queued, so the later passes fuse deterministically.
func TestBatcherMatchesDirectSweep(t *testing.T) {
	sw := testSweeper(t)
	for _, n := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch%d", n), func(t *testing.T) {
			release := make(chan struct{})
			holdPasses(t, release)
			b, err := NewBatcher(sw, BatcherConfig{MaxBatch: 16, QueueDepth: n})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			runs := uniqueRuns(n)
			want := make([][]objective.Profile, n)
			wantClamped := make([]core.Clamps, n)
			for i, r := range runs {
				want[i] = make([]objective.Profile, len(sw.Freqs()))
				if wantClamped[i], err = sw.PredictProfileInto(want[i], r); err != nil {
					t.Fatal(err)
				}
			}

			got := make([][]objective.Profile, n)
			gotClamped := make([]core.Clamps, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range runs {
				got[i] = make([]objective.Profile, len(sw.Freqs()))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					gotClamped[i], errs[i] = b.PredictProfileInto(context.Background(), got[i], runs[i])
				}(i)
			}
			waitQueued(t, b, uint64(n))
			close(release)
			wg.Wait()
			for i := range runs {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				if gotClamped[i] != wantClamped[i] {
					t.Fatalf("run %d: clamped %+v via batcher, %+v direct", i, gotClamped[i], wantClamped[i])
				}
				if !profilesIdentical(got[i], want[i]) {
					t.Fatalf("run %d: batched profiles differ from direct sweep", i)
				}
			}
			st := b.Stats()
			if st.Requests != uint64(n) || st.Batched != uint64(n) || st.Shed != 0 {
				t.Fatalf("stats after %d requests: %+v", n, st)
			}
			if n > 1 && st.MaxBatch < 2 {
				t.Fatalf("%d queued requests never fused: %+v", n, st)
			}
		})
	}
}

// TestBatcherFusesConcurrentRequests: with the dispatcher stalled until the
// queue holds several requests, at least one genuinely fused (size > 1)
// batch must be observed — guarding against a batcher that silently
// degrades to per-request dispatch.
func TestBatcherFusesConcurrentRequests(t *testing.T) {
	sw := testSweeper(t)
	const n = 8
	release := make(chan struct{})
	holdPasses(t, release)

	b, err := NewBatcher(sw, BatcherConfig{MaxBatch: n, QueueDepth: n})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst := make([]objective.Profile, len(sw.Freqs()))
			if _, err := b.PredictProfileInto(context.Background(), dst, syntheticRun(0.2+0.01*float64(i), 0.3)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// The first pass holds the dispatcher, so the other submits
	// accumulate in the queue; released, they fuse into the next pass.
	waitQueued(t, b, n)
	close(release)
	wg.Wait()

	st := b.Stats()
	if st.MaxBatch < 2 {
		t.Fatalf("no fused batch observed: max batch %d, stats %+v", st.MaxBatch, st)
	}
	if st.Batched != n {
		t.Fatalf("batched %d of %d requests", st.Batched, n)
	}
}

// TestBatcherLoneRequestRunsAtOnce: a single submit on an idle batcher is
// dispatched as a batch of 1 — the batcher does not hold it back waiting
// for company.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	sw := testSweeper(t)
	release := make(chan struct{})
	close(release)
	sizes := holdPasses(t, release)
	b, err := NewBatcher(sw, BatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run := syntheticRun(0.42, 0.3)
	want := make([]objective.Profile, len(sw.Freqs()))
	if _, err := sw.PredictProfileInto(want, run); err != nil {
		t.Fatal(err)
	}
	got := make([]objective.Profile, len(sw.Freqs()))
	if _, err := b.PredictProfileInto(context.Background(), got, run); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if !profilesIdentical(got, want) {
		t.Fatal("lone request differs from direct sweep")
	}
	if st := b.Stats(); st.Batches != 1 || st.Batched != 1 || st.MaxBatch != 1 {
		t.Fatalf("lone request stats %+v, want one batch of 1", st)
	}
	if s := sizes(); len(s) != 1 || s[0] != 1 {
		t.Fatalf("pass sizes %v, want [1]", s)
	}
}

// TestBatcherHasNoTimers pins the work-conserving contract in the source:
// the batcher never arms a timer or sleeps, so a lone miss never waits
// for company. On an idle process a sub-millisecond timer wakes only at
// the netpoller's 1 ms granularity, which would dominate the miss path.
func TestBatcherHasNoTimers(t *testing.T) {
	banned := map[string]bool{
		"NewTimer":  true,
		"NewTicker": true,
		"After":     true,
		"AfterFunc": true,
		"Sleep":     true,
		"Tick":      true,
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "batcher.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !banned[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
			pos := fset.Position(sel.Pos())
			t.Errorf("batcher references time.%s at %s:%d", sel.Sel.Name, pos.Filename, pos.Line)
		}
		return true
	})
}

// TestBatcherShedsWhenQueueFull: with the dispatcher stalled, submits past
// QueueDepth fail immediately with ErrOverloaded — bounded memory, no
// silent queueing.
func TestBatcherShedsWhenQueueFull(t *testing.T) {
	sw := testSweeper(t)
	const depth = 4
	release := make(chan struct{})
	var hookOnce sync.Once
	started := make(chan struct{})
	testHookBeforeBatch = func(int) {
		hookOnce.Do(func() { close(started) })
		<-release
	}
	defer func() { testHookBeforeBatch = nil }()

	b, err := NewBatcher(sw, BatcherConfig{MaxBatch: 1, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// First request occupies the dispatcher (stalled in the hook)...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]objective.Profile, len(sw.Freqs()))
		if _, err := b.PredictProfileInto(context.Background(), dst, syntheticRun(0.5, 0.5)); err != nil {
			t.Error(err)
		}
	}()
	<-started

	// ...so these fill the queue without being drained...
	queued := make([]chan error, depth)
	for i := range queued {
		queued[i] = make(chan error, 1)
		go func(i int) {
			dst := make([]objective.Profile, len(sw.Freqs()))
			_, err := b.PredictProfileInto(context.Background(), dst, syntheticRun(0.1+0.01*float64(i), 0.2))
			queued[i] <- err
		}(i)
	}
	waitQueued(t, b, depth+1)

	// ...and the next submit is shed instantly.
	dst := make([]objective.Profile, len(sw.Freqs()))
	if _, err := b.PredictProfileInto(context.Background(), dst, syntheticRun(0.9, 0.9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit: got %v, want ErrOverloaded", err)
	}
	if st := b.Stats(); st.Shed != 1 {
		t.Fatalf("shed count %d, want 1", st.Shed)
	}

	close(release)
	wg.Wait()
	for i := range queued {
		if err := <-queued[i]; err != nil {
			t.Fatalf("queued request %d: %v", i, err)
		}
	}
}

// TestBatcherContextCancelWhileQueued: a request abandoned while still
// queued returns ctx.Err() promptly and is counted canceled; the dispatcher
// recycles it without executing.
func TestBatcherContextCancelWhileQueued(t *testing.T) {
	sw := testSweeper(t)
	release := make(chan struct{})
	var hookOnce sync.Once
	started := make(chan struct{})
	testHookBeforeBatch = func(int) {
		hookOnce.Do(func() { close(started) })
		<-release
	}
	defer func() { testHookBeforeBatch = nil }()

	b, err := NewBatcher(sw, BatcherConfig{MaxBatch: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]objective.Profile, len(sw.Freqs()))
		if _, err := b.PredictProfileInto(context.Background(), dst, syntheticRun(0.5, 0.5)); err != nil {
			t.Error(err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		dst := make([]objective.Profile, len(sw.Freqs()))
		_, err := b.PredictProfileInto(ctx, dst, syntheticRun(0.3, 0.3))
		result <- err
	}()
	waitQueued(t, b, 2)
	cancel()
	select {
	case err := <-result:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled submit: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled submit did not return")
	}
	close(release)
	wg.Wait()
	if st := b.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled count %d, want 1", st.Canceled)
	}
}

// TestBatcherClose: Close is idempotent, queued requests fail with
// ErrClosed, and post-close submits are rejected immediately.
func TestBatcherClose(t *testing.T) {
	sw := testSweeper(t)
	b, err := NewBatcher(sw, BatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent

	dst := make([]objective.Profile, len(sw.Freqs()))
	if _, err := b.PredictProfileInto(context.Background(), dst, syntheticRun(0.5, 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: got %v, want ErrClosed", err)
	}
}

// TestBatcherValidation: bad runs and bad buffers are rejected before
// queueing, and bad configs are rejected at construction.
func TestBatcherValidation(t *testing.T) {
	sw := testSweeper(t)
	b, err := NewBatcher(sw, BatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	short := make([]objective.Profile, 3)
	if _, err := b.PredictProfileInto(context.Background(), short, syntheticRun(0.5, 0.5)); err == nil {
		t.Fatal("short buffer accepted")
	}
	offMax := syntheticRun(0.5, 0.5)
	offMax.FreqMHz = 900
	dst := make([]objective.Profile, len(sw.Freqs()))
	if _, err := b.PredictProfileInto(context.Background(), dst, offMax); err == nil {
		t.Fatal("off-max run accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.PredictProfileInto(ctx, dst, syntheticRun(0.5, 0.5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: got %v", err)
	}

	if _, err := NewBatcher(nil, BatcherConfig{}); err == nil {
		t.Fatal("nil sweeper accepted")
	}
	if _, err := NewBatcher(sw, BatcherConfig{MaxBatch: -2}); err == nil {
		t.Fatal("negative max batch accepted")
	}
	if _, err := NewBatcher(sw, BatcherConfig{QueueDepth: -3}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
}

// TestServerSelectDifferential: the full serving stack (sharded cache +
// micro-batcher) under concurrent load returns selections bit-identical to
// the serial PR 3 path, and hit/miss accounting holds up.
func TestServerSelectDifferential(t *testing.T) {
	sw := testSweeper(t)
	const nRuns = 24
	runs := uniqueRuns(nRuns)

	// Serial reference: per-request sweep through a one-shard cache.
	ref, err := core.NewPlanCache(sw, core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]core.Selection, nRuns)
	for i, r := range runs {
		if want[i], _, _, err = ref.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
		Batch: BatcherConfig{MaxBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	got := make([]core.Selection, nRuns)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nRuns; i += workers {
				sel, _, err := srv.Select(context.Background(), runs[i])
				if err != nil {
					t.Errorf("run %d: %v", i, err)
					return
				}
				got[i] = sel
			}
		}(w)
	}
	wg.Wait()
	for i := range runs {
		if got[i] != want[i] {
			t.Fatalf("run %d: server selection %+v != serial %+v", i, got[i], want[i])
		}
	}

	// Repeat pass: all hits, batcher untouched beyond the first misses.
	misses := srv.Stats().Batch.Requests
	for i, r := range runs {
		sel, hit, err := srv.Select(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("run %d: expected cache hit on repeat", i)
		}
		if sel != want[i] {
			t.Fatalf("run %d: repeat selection changed", i)
		}
	}
	st := srv.Stats()
	if st.Batch.Requests != misses {
		t.Fatalf("repeat pass reached the batcher: %d → %d requests", misses, st.Batch.Requests)
	}
	if st.Cache.Hits < nRuns {
		t.Fatalf("cache hits %d < %d", st.Cache.Hits, nRuns)
	}
	if st.Cache.Misses != nRuns {
		t.Fatalf("cache misses %d, want %d (singleflight per bucket)", st.Cache.Misses, nRuns)
	}
}

// TestServerSelectHitZeroAlloc pins the serving hit path at zero heap
// allocations: once a bucket is cached, Server.Select never touches the
// heap or the batcher.
func TestServerSelectHitZeroAlloc(t *testing.T) {
	srv, err := NewServer(testSweeper(t), ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	run := syntheticRun(0.42, 0.3)
	ctx := context.Background()
	if _, _, err := srv.Select(ctx, run); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, err := srv.Select(ctx, run); err != nil || !hit {
			t.Fatalf("hit path: hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("server hit path allocates: %v allocs/op, want 0", allocs)
	}
}

// TestServerPredict routes an uncached sweep through the batcher and
// matches the direct sweeper bit-for-bit.
func TestServerPredict(t *testing.T) {
	sw := testSweeper(t)
	srv, err := NewServer(sw, ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	run := syntheticRun(0.42, 0.3)
	want := make([]objective.Profile, len(sw.Freqs()))
	wantClamped, err := sw.PredictProfileInto(want, run)
	if err != nil {
		t.Fatal(err)
	}
	got, gotClamped, err := srv.Predict(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if gotClamped != wantClamped || !profilesIdentical(got, want) {
		t.Fatal("Predict differs from direct sweep")
	}
}

// TestServerConfigValidation: the server owns the cache's Sweep hook and
// propagates construction errors.
func TestServerConfigValidation(t *testing.T) {
	sw := testSweeper(t)
	if _, err := NewServer(nil, ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}}}); err == nil {
		t.Fatal("nil sweeper accepted")
	}
	occupied := core.PlanCacheConfig{Objective: objective.EDP{}}
	occupied.Sweep = func(context.Context, []objective.Profile, dcgm.Run) (core.Clamps, error) { return core.Clamps{}, nil }
	if _, err := NewServer(sw, ServerConfig{Cache: occupied}); err == nil {
		t.Fatal("pre-set Sweep accepted")
	}
	if _, err := NewServer(sw, ServerConfig{}); err == nil {
		t.Fatal("missing objective accepted")
	}
	if _, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}},
		Batch: BatcherConfig{MaxBatch: -1},
	}); err == nil {
		t.Fatal("bad batch config accepted")
	}
}
