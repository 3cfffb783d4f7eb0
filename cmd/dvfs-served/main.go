// Command dvfs-served is the online phase as a daemon: a long-running
// HTTP/JSON service that profiles a workload once at the maximum clock and
// answers with the paper's performance-aware energy-optimal frequency.
// Selections ride the concurrent serving stack — sharded plan cache,
// micro-batched fused sweeps — and are bit-identical to what dvfs-select
// computes for the same profiling run.
//
// Endpoints:
//
//	POST /v1/select  {"workload": "LAMMPS"}  → {"freq_mhz": 1005, ...}
//	POST /v1/profile {"workload": "LAMMPS"}  → full predicted DVFS table
//	GET  /v1/stats                           → cache/batcher/HTTP counters
//
// Overload is explicit: the sweep queue is bounded and a full queue answers
// 429 with Retry-After rather than buffering without limit.
//
// Examples:
//
//	dvfs-served -models models/ -addr :8080
//	dvfs-served -models models/ -backend replay -trace trace.csv -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpudvfs/internal/backend/open"
	"gpudvfs/internal/core"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/obs"
	"gpudvfs/internal/serve"
)

// config mirrors the command-line flags.
type config struct {
	modelsDir     string
	objective     string
	threshold     float64
	quantum       float64
	capacity      int
	shards        int
	maxBatch      int
	queue         int
	device        open.Config
	seed          int64
	memFreqs      string
	snapshot      string
	snapshotEvery time.Duration
	logSample     int
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		modelsDir   = flag.String("models", "models", "directory with models saved by dvfs-train")
		backendName = flag.String("backend", "sim", "device backend: sim or replay")
		archName    = flag.String("arch", "GA100", "target GPU architecture (sim backend)")
		trace       = flag.String("trace", "", "CSV recording with max-clock profiles (replay backend)")
		compression = flag.Float64("time-compression", 0, "replay pacing: recorded-time divisor (0 = serve instantly)")
		seed        = flag.Int64("seed", 11, "profiling noise seed (sim backend)")
		objName     = flag.String("objective", "edp", "selection objective: edp or ed2p")
		threshold   = flag.Float64("threshold", -1, "max slowdown fraction (e.g. 0.05); negative = unconstrained")
		quantum     = flag.Float64("quantum", 0, "plan-cache feature quantum (0 = default)")
		capacity    = flag.Int("capacity", 0, "plan-cache entry bound (0 = default)")
		shards      = flag.Int("shards", 0, "plan-cache shard count, rounded up to a power of two (0 = default)")
		maxBatch    = flag.Int("max-batch", 0, "most sweeps fused into one forward pass (0 = default)")
		queue       = flag.Int("queue", 0, "pending-sweep bound; beyond it requests shed with 429 (0 = default)")
		memFreqs    = flag.String("mem-freqs", "", `memory P-states served alongside core clocks: "all", or a comma-separated MHz list; empty serves the core axis only`)
		snapshot    = flag.String("snapshot", "", "plan-cache snapshot file: loaded at boot (warm start), saved on shutdown")
		snapEvery   = flag.Duration("snapshot-interval", 0, "also save the snapshot periodically at this interval (0 = only on shutdown)")
		logSample   = flag.Int("log-sample", 0, "log 1 in N requests to stderr as logfmt lines (0 = no request log)")
	)
	flag.Parse()

	cfg := config{
		modelsDir: *modelsDir,
		objective: *objName,
		threshold: *threshold,
		quantum:   *quantum,
		capacity:  *capacity,
		shards:    *shards,
		maxBatch:  *maxBatch,
		queue:     *queue,
		device:    open.Config{Backend: *backendName, Arch: *archName, Seed: *seed, Trace: *trace, TimeCompression: *compression},
		seed:      *seed,
		memFreqs:  *memFreqs,

		snapshot:      *snapshot,
		snapshotEvery: *snapEvery,
		logSample:     *logSample,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dvfs-served:", err)
		os.Exit(1)
	}
}

// buildHandler assembles the serving stack from flag-level config and
// returns the handler plus the server behind it (snapshot loads and saves
// go through its cache). Close the server when the listener is done.
func buildHandler(cfg config) (http.Handler, *serve.Server, error) {
	dev, err := open.Device(cfg.device)
	if err != nil {
		return nil, nil, err
	}
	models, err := core.LoadModels(cfg.modelsDir)
	if err != nil {
		return nil, nil, err
	}
	obj, err := objective.ByName(cfg.objective)
	if err != nil {
		return nil, nil, err
	}
	arch := dev.Arch()
	mems, err := open.ParseMemFreqs(cfg.memFreqs, arch)
	if err != nil {
		return nil, nil, err
	}
	sw, err := models.GridSweeperFor(arch, arch.DesignClocks(), mems)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.NewServer(sw, serve.ServerConfig{
		Cache: core.PlanCacheConfig{
			Objective: obj,
			Threshold: cfg.threshold,
			Quantum:   cfg.quantum,
			Capacity:  cfg.capacity,
			Shards:    cfg.shards,
		},
		Batch: serve.BatcherConfig{
			MaxBatch:   cfg.maxBatch,
			QueueDepth: cfg.queue,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	var logger *obs.Logger
	if cfg.logSample > 0 {
		logger = obs.NewLogger(os.Stderr, cfg.logSample)
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{Device: dev, ProfileSeed: cfg.seed, Logger: logger})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return h, srv, nil
}

// drainHandler refuses work once shutdown has begun. http.Server.Shutdown
// stops the listener but keeps serving requests that arrive on established
// keep-alive connections until they idle out; without this gate a client
// pipelining requests over one connection could hold the drain window open
// indefinitely. Requests already in flight when draining starts finish
// normally — the gate is checked only at request entry.
type drainHandler struct {
	inner    http.Handler
	draining atomic.Bool
}

func (d *drainHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		w.Header().Set("Connection", "close")
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		return
	}
	d.inner.ServeHTTP(w, r)
}

// run serves until ctx is cancelled (main wires SIGINT/SIGTERM into ctx),
// then drains: new requests answer 503, in-flight requests get up to 5s to
// finish. If ready is non-nil it receives the bound address once the
// listener is up — tests pass addr ":0" and read the port from here.
func run(ctx context.Context, addr string, cfg config, ready chan<- net.Addr) error {
	handler, srv, err := buildHandler(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if cfg.snapshot != "" {
		n, err := srv.Cache().LoadSnapshotFile(cfg.snapshot)
		if err != nil {
			// A snapshot that exists but does not match this configuration
			// would have silently served nothing (or worse); refusing to
			// boot makes the drift explicit. Delete the file to cold-start.
			return fmt.Errorf("warm start from -snapshot refused: %w", err)
		}
		fmt.Fprintf(os.Stderr, "dvfs-served: warm start: %d plans restored from %s\n", n, cfg.snapshot)
		// Final save on the way out — after the listener has drained, so
		// late selections are captured, and before the batcher closes.
		defer func() {
			if err := srv.Cache().SaveSnapshotFile(cfg.snapshot); err != nil {
				fmt.Fprintln(os.Stderr, "dvfs-served: snapshot save:", err)
			}
		}()
		if cfg.snapshotEvery > 0 {
			saverDone := make(chan struct{})
			var saverWG sync.WaitGroup
			saverWG.Add(1)
			go func() {
				defer saverWG.Done()
				ticker := time.NewTicker(cfg.snapshotEvery)
				defer ticker.Stop()
				for {
					select {
					case <-saverDone:
						return
					case <-ticker.C:
						// SaveSnapshotFile is crash-safe (temp file +
						// rename), so a kill mid-save leaves the previous
						// snapshot intact.
						if err := srv.Cache().SaveSnapshotFile(cfg.snapshot); err != nil {
							fmt.Fprintln(os.Stderr, "dvfs-served: snapshot save:", err)
						}
					}
				}
			}()
			defer func() { close(saverDone); saverWG.Wait() }()
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	drain := &drainHandler{inner: handler}
	hs := &http.Server{Handler: drain, ReadHeaderTimeout: 5 * time.Second}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dvfs-served: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		drain.draining.Store(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
