// Command dvfs-router is the scale-out front for a fleet of dvfs-served
// replicas: a consistent-hash proxy that keeps each workload's requests on
// one replica, so per-replica plan-cache hit rates survive horizontal
// scaling. Placement hashes the workload name with the same FNV-1a family
// the plan cache stripes its key space with; replicas profile workloads
// deterministically by name, so every replica a workload could land on
// would compute the same plan — the router just makes sure one of them
// computes it once.
//
// Endpoints:
//
//	POST /v1/select   → proxied to the workload's replica
//	POST /v1/profile  → proxied to the workload's replica
//	GET  /v1/stats    → router + per-replica health and counters
//	GET  /metrics     → Prometheus text exposition
//	GET  /healthz     → 200 while at least one replica is up
//
// A dead replica's keys fail over to the next ring node; the background
// prober brings the replica back when it answers again.
//
// Example:
//
//	dvfs-router -addr :8080 -replicas http://10.0.0.1:8081,http://10.0.0.2:8081
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
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gpudvfs/internal/obs"
	"gpudvfs/internal/router"
)

// config mirrors the command-line flags.
type config struct {
	replicas       string
	vnodes         int
	healthInterval time.Duration
	healthTimeout  time.Duration
	logSample      int
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		replicas  = flag.String("replicas", "", "comma-separated dvfs-served base URLs (required)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default)")
		healthInt = flag.Duration("health-interval", 2*time.Second, "replica liveness probe cadence (negative = disabled)")
		healthTO  = flag.Duration("health-timeout", time.Second, "per-probe timeout")
		logSample = flag.Int("log-sample", 0, "log 1 in N proxied requests to stderr as logfmt lines (0 = no request log)")
	)
	flag.Parse()

	cfg := config{
		replicas:       *replicas,
		vnodes:         *vnodes,
		healthInterval: *healthInt,
		healthTimeout:  *healthTO,
		logSample:      *logSample,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dvfs-router:", err)
		os.Exit(1)
	}
}

// buildProxy assembles the router from flag-level config.
func buildProxy(cfg config) (*router.Proxy, error) {
	var urls []string
	for _, u := range strings.Split(cfg.replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, errors.New("no replicas: pass -replicas http://host:port[,...]")
	}
	var logger *obs.Logger
	if cfg.logSample > 0 {
		logger = obs.NewLogger(os.Stderr, cfg.logSample)
	}
	return router.New(router.Config{
		Replicas:       urls,
		Vnodes:         cfg.vnodes,
		HealthInterval: cfg.healthInterval,
		HealthTimeout:  cfg.healthTimeout,
		Logger:         logger,
	})
}

// drainHandler refuses work once shutdown has begun — same gate as
// dvfs-served: http.Server.Shutdown keeps serving established keep-alive
// connections, and a pipelining client could otherwise hold the drain
// window open indefinitely.
type drainHandler struct {
	inner    http.Handler
	draining atomic.Bool
}

func (d *drainHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		w.Header().Set("Connection", "close")
		http.Error(w, "router is shutting down", http.StatusServiceUnavailable)
		return
	}
	d.inner.ServeHTTP(w, r)
}

// readHeaderTimeout bounds how long an accepted connection may go without
// sending request headers. drainTimeout must exceed it: Shutdown waits for
// such a connection (an HTTP client's spare dial, say) until that timeout
// closes it, so with equal bounds the drain can run out first and the
// daemon exits non-zero on SIGTERM.
const (
	readHeaderTimeout = 5 * time.Second
	drainTimeout      = 2 * readHeaderTimeout
)

// run serves until ctx is cancelled, then drains: new requests answer 503,
// in-flight proxied requests get up to drainTimeout to finish. If ready is
// non-nil it receives the bound address once the listener is up.
func run(ctx context.Context, addr string, cfg config, ready chan<- net.Addr) error {
	p, err := buildProxy(cfg)
	if err != nil {
		return err
	}
	defer p.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	drain := &drainHandler{inner: p.Handler()}
	hs := &http.Server{Handler: drain, ReadHeaderTimeout: readHeaderTimeout}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dvfs-router: listening on %s, %d replicas\n", ln.Addr(), p.Ring().Replicas())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		drain.draining.Store(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
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
