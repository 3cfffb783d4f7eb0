package serve

import (
	"context"
	"sync/atomic"
	"testing"

	"gpudvfs/internal/core"
	"gpudvfs/internal/objective"
)

func benchServer(b *testing.B, cache core.PlanCacheConfig, batch BatcherConfig) *Server {
	b.Helper()
	srv, err := NewServer(testSweeper(b), ServerConfig{Cache: cache, Batch: batch})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkServeSelectHit is the steady-state serving fast path: every
// request hits the sharded cache, never touching the batcher.
func BenchmarkServeSelectHit(b *testing.B) {
	srv := benchServer(b, core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}, BatcherConfig{})
	run := syntheticRun(0.42, 0.3)
	ctx := context.Background()
	if _, _, err := srv.Select(ctx, run); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := srv.Select(ctx, run); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeSelectMiss drives all-miss concurrent Selects through the
// full stack — sharded cache, singleflight, micro-batched fused sweeps. A
// capacity-1 cache keeps every request on the miss path.
func BenchmarkServeSelectMiss(b *testing.B) {
	srv := benchServer(b,
		core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Capacity: 1},
		BatcherConfig{})
	runs := uniqueRuns(1024)
	ctx := context.Background()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := runs[next.Add(1)%uint64(len(runs))]
			if _, _, err := srv.Select(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatcherLoneSweep is one submit on an idle batcher against the
// direct Sweeper.PredictProfileInto: the whole cost of the queue, handoff
// and dispatcher round trip a lone miss pays, with no coalescing
// opportunity.
func BenchmarkBatcherLoneSweep(b *testing.B) {
	sw := testSweeper(b)
	run := syntheticRun(0.42, 0.3)
	dst := make([]objective.Profile, len(sw.Freqs()))
	b.Run("batcher", func(b *testing.B) {
		bt, err := NewBatcher(sw, BatcherConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer bt.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bt.PredictProfileInto(ctx, dst, run); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sw.PredictProfileInto(dst, run); err != nil {
				b.Fatal(err)
			}
		}
	})
}
