package serve

import (
	"context"
	"errors"

	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// ServerConfig assembles the serving stack.
type ServerConfig struct {
	// Cache configures the sharded plan cache (objective required). Its
	// Sweep field is owned by the server — the micro-batcher is injected
	// there — and must be left nil.
	Cache core.PlanCacheConfig
	// Batch configures the miss-path micro-batcher.
	Batch BatcherConfig
}

// ServerStats is one consistent-enough snapshot of the serving counters.
type ServerStats struct {
	Cache    core.PlanCacheStats
	CacheLen int
	Batch    BatcherStats
}

// Server is the concurrent frequency-selection service: a sharded
// core.PlanCache in front, the micro-batcher underneath it on the miss
// path. Hits never touch the batcher; concurrent misses on distinct
// buckets fuse into shared forward passes; repeat misses on one bucket
// stay singleflighted by the cache. Selections are bit-identical to the
// per-request, single-threaded PR 3 path for the same inputs.
type Server struct {
	sw      *core.Sweeper
	batcher *Batcher
	cache   *core.PlanCache
}

// NewServer builds the serving stack over a sweeper. Close it when done.
func NewServer(sw *core.Sweeper, cfg ServerConfig) (*Server, error) {
	if sw == nil {
		return nil, errors.New("serve: server needs a sweeper")
	}
	if cfg.Cache.Sweep != nil {
		return nil, errors.New("serve: ServerConfig.Cache.Sweep is owned by the server; leave it nil")
	}
	b, err := NewBatcher(sw, cfg.Batch)
	if err != nil {
		return nil, err
	}
	cc := cfg.Cache
	cc.Sweep = func(ctx context.Context, dst []objective.Profile, maxRun dcgm.Run) (core.Clamps, error) {
		return b.PredictProfileInto(ctx, dst, maxRun)
	}
	cache, err := core.NewPlanCache(sw, cc)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &Server{sw: sw, batcher: b, cache: cache}, nil
}

// Select resolves the frequency selection for a profiling run: a cache hit
// returns the memoized selection; a miss rides a fused sweep. hit reports
// which happened. ErrOverloaded comes back when the miss path is shedding.
func (s *Server) Select(ctx context.Context, maxRun dcgm.Run) (core.Selection, bool, error) {
	sel, _, hit, err := s.cache.Select(ctx, maxRun)
	return sel, hit, err
}

// Predict runs one design-space sweep through the batcher (no caching) and
// returns the predicted profiles with the per-axis safety-floor clamp
// counts — the /v1/profile endpoint's core.
func (s *Server) Predict(ctx context.Context, maxRun dcgm.Run) ([]objective.Profile, core.Clamps, error) {
	dst := make([]objective.Profile, s.sw.GridSize())
	clamped, err := s.batcher.PredictProfileInto(ctx, dst, maxRun)
	if err != nil {
		return nil, core.Clamps{}, err
	}
	return dst, clamped, nil
}

// Sweeper exposes the underlying design-space sweeper.
func (s *Server) Sweeper() *core.Sweeper { return s.sw }

// QueueLen reports the miss-path batcher's current backlog — the queue
// depth gauge the metrics endpoint exports.
func (s *Server) QueueLen() int { return s.batcher.QueueLen() }

// Cache exposes the sharded plan cache (for stats and tests).
func (s *Server) Cache() *core.PlanCache { return s.cache }

// Stats snapshots all serving counters without blocking the serve path.
func (s *Server) Stats() ServerStats {
	return ServerStats{Cache: s.cache.Stats(), CacheLen: s.cache.Len(), Batch: s.batcher.Stats()}
}

// Close stops the miss-path batcher; in-flight Selects fail with ErrClosed.
func (s *Server) Close() { s.batcher.Close() }
