package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
	"gpudvfs/internal/workloads"
)

// serveModels builds paper-shaped models with random (untrained) weights —
// bit-identity of the serving path does not depend on training, and this
// keeps the test fast.
func serveModels(t *testing.T) *Models {
	t.Helper()
	m, err := serveModelsErr()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serveModelsErr is serveModels without the testing.T, for fuzz seed phases.
func serveModelsErr() (*Models, error) {
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		return nil, err
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		return nil, err
	}
	return &Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}, nil
}

func serveRun(t *testing.T, seed int64, w sim.KernelProfile) dcgm.Run {
	t.Helper()
	coll := dcgm.NewCollector(sim.New(sim.GA100(), 3), dcgm.Config{Seed: seed})
	run, err := coll.ProfileAtMax(w)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// oracleProfile is the seed's build-everything-per-call PredictProfile
// formulation, kept verbatim as the reference the pooled sweeper must match
// bitwise.
func oracleProfile(t *testing.T, m *Models, target backend.Arch, maxRun dcgm.Run, freqs []float64) []objective.Profile {
	t.Helper()
	mean := maxRun.MeanSample()
	rows := make([][]float64, len(freqs))
	for i, f := range freqs {
		row, err := dataset.FeatureVector(m.Features, mean, f, target.MaxFreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = row
	}
	if m.Scaler != nil {
		scaled, err := m.Scaler.Transform(rows)
		if err != nil {
			t.Fatal(err)
		}
		rows = scaled
	}
	pPred, err := m.Power.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	tPred, err := m.Time.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]objective.Profile, len(freqs))
	for i, f := range freqs {
		power := pPred[i][0] * target.TDPWatts
		slow := tPred[i][0]
		if power < 1 {
			power = 1
		}
		if slow < 1e-6 {
			slow = 1e-6
		}
		out[i] = objective.Profile{
			FreqMHz:    f,
			PowerWatts: power,
			TimeSec:    maxRun.ExecTimeSec * slow,
		}
	}
	return out
}

func profilesIdentical(a, b []objective.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].FreqMHz) != math.Float64bits(b[i].FreqMHz) ||
			math.Float64bits(a[i].PowerWatts) != math.Float64bits(b[i].PowerWatts) ||
			math.Float64bits(a[i].TimeSec) != math.Float64bits(b[i].TimeSec) {
			return false
		}
	}
	return true
}

func TestSweeperMatchesPredictProfile(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	sw, err := m.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), workloads.LAMMPS()} {
		run := serveRun(t, int64(40+i), w)
		want := oracleProfile(t, m, arch, run, freqs)

		got, _, err := sw.PredictProfile(run)
		if err != nil {
			t.Fatal(err)
		}
		if !profilesIdentical(got, want) {
			t.Fatalf("%s: sweeper diverges from the per-call oracle", w.Name)
		}
		// The public entry point must agree too (it routes through the
		// memoized sweeper).
		viaModels, err := m.PredictProfile(arch, run, freqs)
		if err != nil {
			t.Fatal(err)
		}
		if !profilesIdentical(viaModels, want) {
			t.Fatalf("%s: Models.PredictProfile diverges from the oracle", w.Name)
		}
	}
}

func TestSweeperConcurrentDeterministic(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	sw, err := m.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := []dcgm.Run{
		serveRun(t, 50, workloads.DGEMM()),
		serveRun(t, 51, workloads.STREAM()),
	}
	want := make([][]objective.Profile, len(runs))
	for i, r := range runs {
		want[i], _, err = sw.PredictProfile(r)
		if err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]objective.Profile, len(freqs))
			for it := 0; it < iters; it++ {
				ri := (g + it) % len(runs)
				if _, err := sw.PredictProfileInto(dst, runs[ri]); err != nil {
					errs <- err
					return
				}
				if !profilesIdentical(dst, want[ri]) {
					errs <- fmt.Errorf("goroutine %d iter %d: output diverged", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// zeroWeights flattens a network to the all-zero function, which predicts
// 0 TDP-fraction power and 0 slowdown — both below the safety floors.
func zeroWeights(net *nn.Network) {
	for _, l := range net.Layers {
		for i := range l.W.Data {
			l.W.Data[i] = 0
		}
		for i := range l.B {
			l.B[i] = 0
		}
	}
}

func TestClampCountSurfaced(t *testing.T) {
	m := serveModels(t)
	zeroWeights(m.Power)
	zeroWeights(m.Time)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	sw, err := m.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := serveRun(t, 60, workloads.DGEMM())
	profiles, clamped, err := sw.PredictProfile(run)
	if err != nil {
		t.Fatal(err)
	}
	// Every frequency clamps both power and slowdown; a 1-D sweep charges
	// every clamp to the core axis.
	if want := 2 * len(freqs); clamped.Total() != want || clamped.Core != want || clamped.Mem != 0 {
		t.Fatalf("clamped = %+v, want Core=%d Mem=0", clamped, want)
	}
	for _, p := range profiles {
		if p.PowerWatts != 1 || p.TimeSec != run.ExecTimeSec*1e-6 {
			t.Fatalf("floors not applied: %+v", p)
		}
	}

	// And the counter reaches OnlineResult through the online pipeline.
	dev := sim.New(sim.GA100(), 61)
	res, err := OnlinePredict(dev, m, workloads.DGEMM(), dcgm.Config{Seed: 62}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(arch.DesignClocks()); res.Clamped != want || res.ClampedCore != want || res.ClampedMem != 0 {
		t.Fatalf("OnlineResult clamps = %d (core %d, mem %d), want total=core=%d mem=0",
			res.Clamped, res.ClampedCore, res.ClampedMem, want)
	}

	// A healthy (random-weight) model pair rarely clamps everything; just
	// assert the count stays within its bound.
	m2 := serveModels(t)
	sw2, err := m2.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, clamped2, err := sw2.PredictProfile(run)
	if err != nil {
		t.Fatal(err)
	}
	if clamped2.Total() < 0 || clamped2.Total() > 2*len(freqs) || clamped2.Mem != 0 {
		t.Fatalf("clamp count %+v out of range", clamped2)
	}
}

func planCacheFor(t *testing.T, m *Models, cfg PlanCacheConfig) *PlanCache {
	t.Helper()
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPlanCache(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func selectionsIdentical(a, b Selection) bool {
	return a.Objective == b.Objective &&
		math.Float64bits(a.FreqMHz) == math.Float64bits(b.FreqMHz) &&
		math.Float64bits(a.EnergyPct) == math.Float64bits(b.EnergyPct) &&
		math.Float64bits(a.TimePct) == math.Float64bits(b.TimePct)
}

func TestPlanCacheHitReturnsIdenticalSelection(t *testing.T) {
	m := serveModels(t)
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	run := serveRun(t, 70, workloads.DGEMM())

	first, _, hit, err := pc.Select(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Select reported a hit")
	}
	second, _, hit, err := pc.Select(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("repeat Select missed")
	}
	if !selectionsIdentical(first, second) {
		t.Fatalf("cached selection diverged: %+v vs %+v", first, second)
	}
	if s := pc.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if c, ok := pc.Clamped(run); !ok || c.Total() < 0 {
		t.Fatalf("Clamped = %+v, %v", c, ok)
	}
}

// syntheticRun builds a max-clock profiling run whose mean features are
// exactly the given activities.
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

func TestPlanCacheQuantizationNeverAliasesBeyondTolerance(t *testing.T) {
	m := serveModels(t)
	const quantum = 0.1
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Quantum: quantum})

	base := syntheticRun(0.42, 0.30)
	baseKey, err := pc.keyFor(base.MeanSample())
	if err != nil {
		t.Fatal(err)
	}
	// Nearby workloads (within one bucket) share the entry…
	near := syntheticRun(0.42+quantum/4, 0.30)
	nearKey, err := pc.keyFor(near.MeanSample())
	if err != nil {
		t.Fatal(err)
	}
	if nearKey != baseKey {
		t.Fatalf("within-bucket workloads got distinct keys:\n%q\n%q", baseKey, nearKey)
	}
	// …but anything differing by more than the tolerance in any dimension
	// never aliases.
	for _, d := range []struct{ fp, dram float64 }{
		{quantum * 1.01, 0},
		{0, quantum * 1.01},
		{-quantum * 1.5, 0},
		{quantum * 3, quantum * 3},
	} {
		far := syntheticRun(0.42+d.fp, 0.30+d.dram)
		k, err := pc.keyFor(far.MeanSample())
		if err != nil {
			t.Fatal(err)
		}
		if k == baseKey {
			t.Fatalf("workloads differing by (%v,%v) > tolerance aliased to one key", d.fp, d.dram)
		}
	}
}

func TestPlanCacheEviction(t *testing.T) {
	m := serveModels(t)
	// One shard pins the original exact global-LRU eviction order; with
	// several stripes the bound becomes per-shard (see the sharded tests).
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Quantum: 0.1, Capacity: 2, Shards: 1})
	runs := []dcgm.Run{
		syntheticRun(0.15, 0.20),
		syntheticRun(0.45, 0.20),
		syntheticRun(0.75, 0.20),
	}
	for _, r := range runs {
		if _, _, _, err := pc.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pc.Len())
	}
	s := pc.Stats()
	if s.Evictions != 1 || s.Misses != 3 {
		t.Fatalf("stats %+v", s)
	}
	// The oldest bucket was evicted; re-querying it misses again.
	if _, _, hit, err := pc.Select(context.Background(), runs[0]); err != nil || hit {
		t.Fatalf("evicted bucket still hit (err %v)", err)
	}
	// The most recent one still hits.
	if _, _, hit, err := pc.Select(context.Background(), runs[2]); err != nil || !hit {
		t.Fatalf("recent bucket missed (err %v)", err)
	}
}

func TestPlanCacheSingleflight(t *testing.T) {
	m := serveModels(t)
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	run := serveRun(t, 71, workloads.STREAM())

	const goroutines = 8
	sels := make([]Selection, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sels[g], _, _, errs[g] = pc.Select(context.Background(), run)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !selectionsIdentical(sels[g], sels[0]) {
			t.Fatalf("goroutine %d selection diverged", g)
		}
	}
	// Singleflight: all concurrent callers shared one computation/bucket.
	if s := pc.Stats(); s.Misses != 1 {
		t.Fatalf("stats %+v, want exactly 1 miss", s)
	}
}

// TestBatchSweepMatchesSingle is the fused-batch differential: stacking B
// runs into one forward pass must reproduce the per-run sweep bit for bit
// at every batch size the serving layer can produce.
func TestBatchSweepMatchesSingle(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	sw, err := m.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 64} {
		runs := make([]dcgm.Run, batch)
		want := make([][]objective.Profile, batch)
		wantClamped := make([]Clamps, batch)
		for i := range runs {
			runs[i] = syntheticRun(0.05+0.013*float64(i%60), 0.10+0.011*float64(i%70))
			want[i] = make([]objective.Profile, len(freqs))
			wantClamped[i], err = sw.PredictProfileInto(want[i], runs[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		dsts := make([][]objective.Profile, batch)
		for i := range dsts {
			dsts[i] = make([]objective.Profile, len(freqs))
		}
		clamped := make([]Clamps, batch)
		if err := sw.PredictProfilesInto(dsts, clamped, runs); err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			if !profilesIdentical(dsts[i], want[i]) {
				t.Fatalf("batch %d: run %d diverged from the per-run sweep", batch, i)
			}
			if clamped[i] != wantClamped[i] {
				t.Fatalf("batch %d: run %d clamp count %+v, want %+v", batch, i, clamped[i], wantClamped[i])
			}
		}
	}
}

func TestBatchSweepValidation(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	sw, err := m.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := syntheticRun(0.4, 0.3)
	dst := [][]objective.Profile{make([]objective.Profile, len(freqs))}
	// Mismatched slice lengths.
	if err := sw.PredictProfilesInto(dst, make([]Clamps, 2), []dcgm.Run{good}); err == nil {
		t.Fatal("mismatched clamp slots accepted")
	}
	// Invalid run (wrong clock) is named by index.
	bad := good
	bad.FreqMHz = 500
	if err := sw.PredictProfilesInto(dst, make([]Clamps, 1), []dcgm.Run{bad}); err == nil {
		t.Fatal("off-max profiling run accepted")
	}
	// Short profile buffer.
	short := [][]objective.Profile{make([]objective.Profile, 3)}
	if err := sw.PredictProfilesInto(short, make([]Clamps, 1), []dcgm.Run{good}); err == nil {
		t.Fatal("short profile buffer accepted")
	}
	// Empty batch is a no-op.
	if err := sw.PredictProfilesInto(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.ValidateRun(bad); err == nil {
		t.Fatal("ValidateRun accepted an off-max run")
	}
}

// TestPlanCacheShardedDifferential: for the same request stream, every
// shard count must produce byte-identical selections (shards only change
// who contends on which mutex, never what is computed).
func TestPlanCacheShardedDifferential(t *testing.T) {
	m := serveModels(t)
	runs := make([]dcgm.Run, 40)
	for i := range runs {
		runs[i] = syntheticRun(0.05+0.17*float64(i%20), 0.10+0.19*float64(i/20))
	}
	var want []Selection
	for _, shards := range []int{1, 16} {
		pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: shards})
		if got := pc.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		sels := make([]Selection, len(runs))
		for i, r := range runs {
			var err error
			sels[i], _, _, err = pc.Select(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
		}
		if want == nil {
			want = sels
			continue
		}
		for i := range sels {
			if !selectionsIdentical(sels[i], want[i]) {
				t.Fatalf("shard count %d: selection %d diverged from the 1-shard cache", shards, i)
			}
		}
		// Aggregate and per-shard counters agree.
		agg := pc.Stats()
		var sum PlanCacheStats
		for _, s := range pc.ShardStats() {
			sum.Hits += s.Hits
			sum.Misses += s.Misses
			sum.Evictions += s.Evictions
		}
		if agg != sum {
			t.Fatalf("aggregate stats %+v != shard sum %+v", agg, sum)
		}
		if agg.Misses != uint64(len(runs)) {
			t.Fatalf("stats %+v, want %d misses", agg, len(runs))
		}
	}
}

// TestPlanCacheShardRounding: shard counts round up to powers of two and
// invalid values are rejected.
func TestPlanCacheShardRounding(t *testing.T) {
	m := serveModels(t)
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 5})
	if got := pc.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8 (5 rounded up)", got)
	}
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Shards: -2}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Shards: 1 << 20}); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}

// TestPlanCacheConcurrentStatsNoTornReads hammers Select from many
// goroutines while a reader polls Stats/ShardStats/Len continuously; under
// -race this asserts the lock-free counters never produce a torn read, and
// the final counts must balance exactly.
func TestPlanCacheConcurrentStatsNoTornReads(t *testing.T) {
	m := serveModels(t)
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 16})
	runs := make([]dcgm.Run, 8)
	for i := range runs {
		runs[i] = syntheticRun(0.05+0.17*float64(i), 0.3)
	}

	const goroutines, iters = 8, 30
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := pc.Stats()
			// Monotone totals: a snapshot can never see more hits+misses
			// than requests issued overall.
			if s.Hits+s.Misses > goroutines*iters {
				panic(fmt.Sprintf("impossible snapshot %+v", s))
			}
			pc.ShardStats()
			pc.Len()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if _, _, _, err := pc.Select(context.Background(), runs[(g+it)%len(runs)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := pc.Stats()
	if s.Hits+s.Misses != goroutines*iters {
		t.Fatalf("stats %+v, want hits+misses = %d", s, goroutines*iters)
	}
	if s.Misses != uint64(len(runs)) {
		t.Fatalf("stats %+v, want %d misses (singleflight per bucket)", s, len(runs))
	}
}

func TestPlanCacheConfigValidation(t *testing.T) {
	m := serveModels(t)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanCache(nil, PlanCacheConfig{Objective: objective.EDP{}}); err == nil {
		t.Fatal("nil sweeper accepted")
	}
	if _, err := NewPlanCache(sw, PlanCacheConfig{}); err == nil {
		t.Fatal("missing objective accepted")
	}
	if _, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Quantum: -1}); err == nil {
		t.Fatal("negative quantum accepted")
	}
	if _, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Capacity: -3}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// FuzzPlanKeyQuantizer checks the cache key quantizer's two contracts over
// arbitrary feature values: values separated by more than one quantum never
// share a bucket, and a ±1 ulp perturbation moves the bucket index by at
// most one (it can only change at all when the value sits on a bucket
// boundary).
func FuzzPlanKeyQuantizer(f *testing.F) {
	f.Add(0.0, 0.1)
	f.Add(0.42, 0.73)
	f.Add(-0.30000000001, 0.29999999999)
	f.Add(0.1, 0.2)
	f.Add(1e-12, -1e-12)
	f.Fuzz(func(t *testing.T, v, w float64) {
		const q = 0.1
		if math.IsNaN(v) || math.IsNaN(w) {
			t.Skip()
		}
		// Realistic feature magnitudes: activities, clock fractions, scaled
		// PCIe rates. Beyond this, float spacing exceeds the bucket width and
		// the quantizer's sentinel clamps take over.
		if math.Abs(v) > 1e6 || math.Abs(w) > 1e6 {
			t.Skip()
		}
		a, b := v, w
		if a > b {
			a, b = b, a
		}
		ba, bb := quantizeFeature(a, q), quantizeFeature(b, q)
		if ba > bb {
			t.Fatalf("quantizer not monotone: q(%v)=%d > q(%v)=%d", a, ba, b, bb)
		}
		if b-a > q*(1+1e-8) && ba == bb {
			t.Fatalf("values %v and %v differ by more than the quantum but share bucket %d", a, b, ba)
		}
		bv := quantizeFeature(v, q)
		up := quantizeFeature(math.Nextafter(v, math.Inf(1)), q)
		if up != bv && up != bv+1 {
			t.Fatalf("+1 ulp moved bucket from %d to %d", bv, up)
		}
		down := quantizeFeature(math.Nextafter(v, math.Inf(-1)), q)
		if down != bv && down != bv-1 {
			t.Fatalf("-1 ulp moved bucket from %d to %d", bv, down)
		}

		// The (core, mem)-extended key concatenates per-feature buckets, so
		// the no-alias property must survive composition: treating v as a
		// core-scaled column and w as the mem-scaled column, two grid points
		// whose values differ by more than the quantum on EITHER axis must
		// produce distinct (coreBucket, memBucket) pairs.
		if math.Abs(v-w) > q*(1+1e-8) {
			cv, cw := quantizeFeature(v, q), quantizeFeature(w, q)
			if cv == cw {
				t.Fatalf("core/mem values %v and %v differ by more than the quantum but compose to the same bucket pair (%d,%d)", v, w, cv, cw)
			}
		}
	})
}

// planKeyDigits strips a cache's shared prefix off a key and parses the
// remaining quantized feature digits (base 36, comma-terminated).
func planKeyDigits(t *testing.T, c *PlanCache, key string) []int64 {
	t.Helper()
	if !strings.HasPrefix(key, c.prefix) {
		t.Fatalf("key %q lacks the cache prefix %q", key, c.prefix)
	}
	parts := strings.Split(strings.TrimSuffix(key[len(c.prefix):], ","), ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 36, 64)
		if err != nil {
			t.Fatalf("key digit %q does not parse: %v", p, err)
		}
		out[i] = n
	}
	return out
}

// FuzzPlanKeyGrid checks the quantizer contracts at the full plan-key level
// with the memory axis in the key: a grid cache never aliases a core-only
// cache for the same telemetry (the mem-clock list is part of the key
// identity), two different mem lists never alias each other, the feature
// digits are identical across all three (the mem axis lives in the prefix,
// not the per-workload digits), and a ±1 ulp telemetry perturbation moves
// each digit by at most one.
func FuzzPlanKeyGrid(f *testing.F) {
	m, err := serveModelsErr()
	if err != nil {
		f.Fatal(err)
	}
	arch := sim.GA100().Spec()
	mk := func(mems []float64) *PlanCache {
		sw, err := m.NewSweeper(arch, arch.DesignClocks(), mems)
		if err != nil {
			f.Fatal(err)
		}
		pc, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}})
		if err != nil {
			f.Fatal(err)
		}
		return pc
	}
	pc1d := mk(nil)
	pc2d := mk([]float64{1597, 1215, 810})
	pc2b := mk([]float64{1597, 1215})

	f.Add(0.4, 0.3, 1410.0)
	f.Add(0.0, 0.0, 510.0)
	f.Add(0.05, 0.99, 1005.0)
	f.Fuzz(func(t *testing.T, fp, dram, clk float64) {
		if math.IsNaN(fp) || math.IsNaN(dram) || math.IsNaN(clk) {
			t.Skip()
		}
		if math.Abs(fp) > 1e6 || math.Abs(dram) > 1e6 || math.Abs(clk) > 1e9 {
			t.Skip()
		}
		mean := dcgm.Sample{FP32Active: fp, DRAMActive: dram, SMAppClockMHz: clk}
		k1, err := pc1d.keyFor(mean)
		if err != nil {
			t.Skip() // non-finite feature vector; rejected upstream
		}
		k2, err := pc2d.keyFor(mean)
		if err != nil {
			t.Fatalf("grid key errored where core-only key did not: %v", err)
		}
		kb, err := pc2b.keyFor(mean)
		if err != nil {
			t.Fatal(err)
		}
		if k1 == k2 || k1 == kb || k2 == kb {
			t.Fatalf("keys alias across mem axes:\n1d: %q\n2d: %q\n2b: %q", k1, k2, kb)
		}
		d1 := planKeyDigits(t, pc1d, k1)
		d2 := planKeyDigits(t, pc2d, k2)
		db := planKeyDigits(t, pc2b, kb)
		if fmt.Sprint(d1) != fmt.Sprint(d2) || fmt.Sprint(d1) != fmt.Sprint(db) {
			t.Fatalf("feature digits differ across mem axes for identical telemetry: %v vs %v vs %v", d1, d2, db)
		}

		// ulp-stability with the mem axis in the key: a one-ulp nudge of any
		// telemetry field moves each quantized digit by at most one bucket.
		for _, nudged := range []dcgm.Sample{
			{FP32Active: math.Nextafter(fp, math.Inf(1)), DRAMActive: dram, SMAppClockMHz: clk},
			{FP32Active: fp, DRAMActive: math.Nextafter(dram, math.Inf(-1)), SMAppClockMHz: clk},
			{FP32Active: fp, DRAMActive: dram, SMAppClockMHz: math.Nextafter(clk, math.Inf(1))},
		} {
			kn, err := pc2d.keyFor(nudged)
			if err != nil {
				continue
			}
			dn := planKeyDigits(t, pc2d, kn)
			if len(dn) != len(d2) {
				t.Fatalf("digit count changed under 1 ulp: %v vs %v", d2, dn)
			}
			for i := range dn {
				if diff := dn[i] - d2[i]; diff < -1 || diff > 1 {
					t.Fatalf("digit %d moved %d buckets under a 1 ulp nudge (%v -> %v)", i, diff, d2, dn)
				}
			}
		}
	})
}
