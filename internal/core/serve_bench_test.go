package core

import (
	"context"
	"sync/atomic"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
	"gpudvfs/internal/workloads"
)

// benchModels builds paper-shaped models (3-64-64-64-1) without paying for
// training: the serving-path cost is identical for trained and untrained
// weights.
func benchModels(b *testing.B) *Models {
	b.Helper()
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		b.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		b.Fatal(err)
	}
	return &Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
}

func benchProfileRun(b *testing.B) dcgm.Run {
	b.Helper()
	coll := dcgm.NewCollector(sim.New(sim.GA100(), 3), dcgm.Config{Seed: 9})
	run, err := coll.ProfileAtMax(workloads.DGEMM())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkPredictProfile measures one online-phase prediction across the
// full 61-frequency design space — the paper's Algorithm 1 inner loop and
// the serving hot path of a frequency-selection service.
func BenchmarkPredictProfile(b *testing.B) {
	m := benchModels(b)
	run := benchProfileRun(b)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictProfile(arch, run, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictProfileInto is the fully amortized sweep: pre-built
// sweeper, caller-owned profile buffer. This is the path a long-running
// governor sits on; the target is zero steady-state allocations.
func BenchmarkPredictProfileInto(b *testing.B) {
	m := benchModels(b)
	run := benchProfileRun(b)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]objective.Profile, len(sw.Freqs()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.PredictProfileInto(dst, run); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMissRuns pregenerates profiling runs whose quantized feature
// vectors never collide, so a capacity-starved cache treats every request
// as a miss — the contended path the sharded cache exists for.
func benchMissRuns(n int) []dcgm.Run {
	runs := make([]dcgm.Run, n)
	for i := range runs {
		runs[i] = dcgm.Run{
			FreqMHz:     1410,
			ExecTimeSec: 1,
			Samples: []dcgm.Sample{{
				FP32Active:    0.05 + 0.17*float64(i%257),
				DRAMActive:    0.10 + 0.19*float64(i/257),
				SMAppClockMHz: 1410,
			}},
		}
	}
	return runs
}

// benchSelectMiss drives concurrent all-miss Selects through a cache with
// the given shard count. Capacity 1 keeps every shard permanently full, so
// each Select recomputes its sweep — isolating map/LRU lock contention plus
// sweep cost under parallel load.
func benchSelectMiss(b *testing.B, shards int) {
	m := benchModels(b)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		b.Fatal(err)
	}
	pc, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Capacity: 1, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	runs := benchMissRuns(1024)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := runs[next.Add(1)%uint64(len(runs))]
			if _, _, _, err := pc.Select(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCacheSelectMissSingleShard is the PR 3 baseline shape: one
// global mutex in front of every miss.
func BenchmarkPlanCacheSelectMissSingleShard(b *testing.B) { benchSelectMiss(b, 1) }

// BenchmarkPlanCacheSelectMissSharded is the lock-striped cache at its
// default 16 shards.
func BenchmarkPlanCacheSelectMissSharded(b *testing.B) { benchSelectMiss(b, 16) }

// BenchmarkBatchSweep8 measures the fused 8-run sweep — one (8·61)×3
// forward pass per model instead of eight 61×3 passes.
func BenchmarkBatchSweep8(b *testing.B) {
	m := benchModels(b)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 8
	runs := benchMissRuns(batch)
	dsts := make([][]objective.Profile, batch)
	for i := range dsts {
		dsts[i] = make([]objective.Profile, len(sw.Freqs()))
	}
	clamped := make([]Clamps, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.PredictProfilesInto(dsts, clamped, runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheSelect measures a steady stream of same-character
// online queries — after the first miss, every Select is a cache hit.
func BenchmarkPlanCacheSelect(b *testing.B) {
	m := benchModels(b)
	run := benchProfileRun(b)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		b.Fatal(err)
	}
	pc, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := pc.Select(context.Background(), run); err != nil {
			b.Fatal(err)
		}
	}
}
