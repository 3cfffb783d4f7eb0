package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpudvfs/internal/backend/open"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/router"
	"gpudvfs/internal/serve"
	"gpudvfs/internal/stats"
)

// loadResult is one scenario × concurrency measurement in the JSON report.
type loadResult struct {
	Scenario      string  `json:"scenario"`
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	Shed          int     `json:"shed"`
	Hits          int     `json:"hits"`
	Misses        int     `json:"misses"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// loadReport mirrors BENCH_serve.json's shape: description, machine (with
// the single-core caveat when it applies), toolchain, then results.
type loadReport struct {
	Description string       `json:"description"`
	Machine     string       `json:"machine"`
	Go          string       `json:"go"`
	Results     []loadResult `json:"results"`
}

// selectFunc abstracts one closed-loop request so local scenarios and the
// URL mode share the measurement loop. hit reports a plan-cache hit, shed a
// deliberate 429-style rejection (counted, not failed).
type selectFunc func(i int) (hit, shed bool, err error)

// scenario is one serving configuration under test. mk builds a fresh
// selectFunc (and its cleanup) per concurrency level, so each level starts
// from a cold cache and the reported hit/miss split is per-level, not
// cumulative across the sweep of levels.
type scenario struct {
	name string
	mk   func() (selectFunc, func(), error)
}

// loadKeys pregenerates the per-request workload-key index sequence.
// "uniform" returns nil: request i touches key i mod the key space, so a
// capacity-starved cache treats every request as a miss (the contended
// sweep path this harness was built to isolate). "zipf" draws one
// Zipf(s=1.1) sample per request over the same space from a fixed seed:
// a hot head of keys repeats, the realistic skew a plan cache exists for,
// and the hit/miss split becomes the interesting number.
func loadKeys(dist string, n, space int) ([]int, error) {
	switch dist {
	case "", "uniform":
		return nil, nil
	case "zipf":
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(space-1))
		keys := make([]int, n)
		for i := range keys {
			keys[i] = int(z.Uint64())
		}
		return keys, nil
	}
	return nil, fmt.Errorf("unknown -load-dist %q (have uniform, zipf)", dist)
}

// parseConcurrency turns "1,4,16" into sorted positive worker counts.
func parseConcurrency(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad concurrency level %q (want positive integers, e.g. \"1,4,16\")", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("no concurrency levels given")
	}
	sort.Ints(out)
	return out, nil
}

// loadModels builds paper-shaped random-weight models: the serving cost is
// identical for trained and untrained weights, so the load harness skips
// training.
func loadModels() (*core.Models, error) {
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		return nil, err
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		return nil, err
	}
	return &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}, nil
}

// loadRuns pregenerates profiling runs whose quantized features never
// collide, so a capacity-starved cache treats every request as a miss and
// the harness measures the contended sweep path, not cache hits.
func loadRuns(n int) []dcgm.Run {
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

// measure drives `requests` closed-loop requests through `workers`
// goroutines and aggregates throughput and latency percentiles.
func measure(scenario string, workers, requests int, call selectFunc) (loadResult, error) {
	var (
		next    atomic.Int64
		shed    atomic.Int64
		hits    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    = make([]float64, 0, requests)
		callErr atomic.Value
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]float64, 0, requests/workers+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					break
				}
				t0 := time.Now()
				wasHit, wasShed, err := call(i)
				if err != nil {
					callErr.Store(err)
					return
				}
				if wasShed {
					shed.Add(1)
					continue
				}
				if wasHit {
					hits.Add(1)
				}
				local = append(local, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := callErr.Load().(error); ok {
		return loadResult{}, fmt.Errorf("%s @ %d workers: %w", scenario, workers, err)
	}
	res := loadResult{
		Scenario:      scenario,
		Concurrency:   workers,
		Requests:      requests,
		Shed:          int(shed.Load()),
		Hits:          int(hits.Load()),
		ThroughputRPS: float64(requests) / elapsed.Seconds(),
	}
	res.Misses = res.Requests - res.Shed - res.Hits
	if len(lats) > 0 {
		sort.Float64s(lats)
		res.P50Ms = lats[len(lats)/2]
		res.P99Ms = lats[min(len(lats)-1, len(lats)*99/100)]
	}
	return res, nil
}

// localScenarios builds the three serving configurations the report
// contrasts: the PR 3 baseline shape (one global mutex), lock striping
// alone, and striping plus the micro-batched miss path. Under the uniform
// distribution, capacity 1 starves the cache so every request exercises the
// sweep path; under zipf, capacity 64 holds the hot head of the key
// distribution and the tail misses. mems widens each sweeper to a
// (core × mem) grid; nil keeps the 1-D sweep.
func localScenarios(m *core.Models, runs []dcgm.Run, keys []int, mems []float64, capacity int, label string) []scenario {
	arch := sim.GA100().Spec()
	idx := func(i int) int {
		if keys != nil {
			return keys[i%len(keys)] % len(runs)
		}
		return i % len(runs)
	}
	mkCache := func(shards int) (selectFunc, func(), error) {
		sw, err := m.NewSweeper(arch, arch.DesignClocks(), mems)
		if err != nil {
			return nil, nil, err
		}
		pc, err := core.NewPlanCache(sw, core.PlanCacheConfig{
			Objective: objective.EDP{}, Threshold: -1, Capacity: capacity, Shards: shards,
		})
		if err != nil {
			return nil, nil, err
		}
		return func(i int) (bool, bool, error) {
			_, _, hit, err := pc.Select(context.Background(), runs[idx(i)])
			return hit, false, err
		}, func() {}, nil
	}
	mkBatched := func() (selectFunc, func(), error) {
		sw, err := m.NewSweeper(arch, arch.DesignClocks(), mems)
		if err != nil {
			return nil, nil, err
		}
		srv, err := serve.NewServer(sw, serve.ServerConfig{
			Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Capacity: capacity, Shards: 16},
		})
		if err != nil {
			return nil, nil, err
		}
		return func(i int) (bool, bool, error) {
			_, hit, err := srv.Select(context.Background(), runs[idx(i)])
			if errors.Is(err, serve.ErrOverloaded) {
				return false, true, nil
			}
			return hit, false, err
		}, srv.Close, nil
	}
	return []scenario{
		{label + ", single shard (PR 3 baseline shape)", func() (selectFunc, func(), error) { return mkCache(1) }},
		{label + ", 16 shards", func() (selectFunc, func(), error) { return mkCache(16) }},
		{label + ", 16 shards + micro-batched sweep", mkBatched},
	}
}

// doSelect posts one select and classifies the outcome: 200 reports the
// response's cache_hit, 429 counts as shed, anything else is an error.
func doSelect(client *http.Client, base, app string) (hit, shed bool, err error) {
	body := fmt.Sprintf(`{"workload": %q}`, app)
	resp, err := client.Post(base+"/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var sel struct {
			CacheHit bool `json:"cache_hit"`
		}
		err := json.NewDecoder(resp.Body).Decode(&sel)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return sel.CacheHit, false, err
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return false, true, nil
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return false, false, fmt.Errorf("POST /v1/select: status %d", resp.StatusCode)
}

// appAt picks request i's workload name: the pregenerated key sequence
// when present, round-robin otherwise.
func appAt(apps []string, keys []int, i int) string {
	if keys != nil {
		return apps[keys[i%len(keys)]%len(apps)]
	}
	return apps[i%len(apps)]
}

// urlScenario drives an external dvfs-served daemon (or a dvfs-router
// front). Note the daemon's cache stays warm across concurrency levels,
// unlike local scenarios.
func urlScenario(url string, apps []string, keys []int) selectFunc {
	client := &http.Client{Timeout: 30 * time.Second}
	return func(i int) (bool, bool, error) {
		return doSelect(client, url, appAt(apps, keys, i))
	}
}

// fleetScenario drives several dvfs-served daemons with client-side
// routing: each request's workload name picks its replica through the
// same consistent-hash ring dvfs-router uses, so per-replica caches see
// stable key subsets without a router daemon in the path.
func fleetScenario(urls []string, apps []string, keys []int) (selectFunc, error) {
	ring, err := router.NewRing(urls, 0)
	if err != nil {
		return nil, err
	}
	clients := make([]*http.Client, len(urls))
	for i := range clients {
		clients[i] = &http.Client{Timeout: 30 * time.Second}
	}
	return func(i int) (bool, bool, error) {
		app := appAt(apps, keys, i)
		owner := ring.Pick([]byte(app), nil)
		return doSelect(clients[owner], urls[owner], app)
	}, nil
}

// routerScenarios builds the replica-scaling sweep behind BENCH_router.json:
// for each replica count, a fresh fleet of in-process dvfs-served stacks on
// loopback listeners fronted by a dvfs-router proxy, driven through real
// sockets. Every level starts cold (new replicas, new router), so the
// hit/miss split and throughput are comparable across counts.
func routerScenarios(m *core.Models, counts []int, apps []string, keys []int) []scenario {
	arch := sim.GA100().Spec()
	mkFleet := func(n int) (selectFunc, func(), error) {
		var cleanups []func()
		cleanup := func() {
			for i := len(cleanups) - 1; i >= 0; i-- {
				cleanups[i]()
			}
		}
		urls := make([]string, n)
		for i := 0; i < n; i++ {
			sw, err := m.NewSweeper(arch, arch.DesignClocks(), nil)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			srv, err := serve.NewServer(sw, serve.ServerConfig{
				Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
			})
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			h, err := serve.NewHandler(srv, serve.HTTPConfig{Device: sim.New(sim.GA100(), 3), ProfileSeed: 11})
			if err != nil {
				srv.Close()
				cleanup()
				return nil, nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				cleanup()
				return nil, nil, err
			}
			hs := &http.Server{Handler: h}
			go hs.Serve(ln) //nolint:errcheck // closed via hs.Close
			cleanups = append(cleanups, func() { hs.Close(); srv.Close() })
			urls[i] = "http://" + ln.Addr().String()
		}
		p, err := router.New(router.Config{Replicas: urls, HealthInterval: -1})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.Close()
			cleanup()
			return nil, nil, err
		}
		fhs := &http.Server{Handler: p.Handler()}
		go fhs.Serve(fln) //nolint:errcheck // closed via fhs.Close
		cleanups = append(cleanups, func() { fhs.Close(); p.Close() })
		return urlScenario("http://"+fln.Addr().String(), apps, keys), cleanup, nil
	}
	out := make([]scenario, len(counts))
	for i, n := range counts {
		n := n
		out[i] = scenario{
			fmt.Sprintf("dvfs-router over %d replica(s)", n),
			func() (selectFunc, func(), error) { return mkFleet(n) },
		}
	}
	return out
}

func machineString() string {
	s := fmt.Sprintf("GOMAXPROCS=%d, NumCPU=%d, %s/%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	if runtime.NumCPU() == 1 {
		s += " (single-core container: shard striping and batch fusing cannot show wall-clock speedups here — their contracts, bit-identical selections under concurrency and bounded-queue shedding, are enforced by TestPlanCacheShardedDifferential, TestServerSelectDifferential, and TestHTTPOverloadSheds; rerun this mode on a multi-core host for scaling numbers)"
	}
	return s
}

// splitList trims a comma-separated flag value into its non-empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runLoad is the closed-loop load-generator mode: local serving-stack
// scenarios by default, an external daemon when url is set, a client-routed
// external fleet when urls is set, or an in-process router-fronted replica
// scaling sweep when replicas is set.
func runLoad(url, urls, replicas, concStr, appsStr, dist, memSpec string, requests int, outPath string, w io.Writer) error {
	levels, err := parseConcurrency(concStr)
	if err != nil {
		return err
	}
	if requests < 1 {
		return fmt.Errorf("-load-requests must be positive, got %d", requests)
	}
	modes := 0
	for _, set := range []bool{url != "", urls != "", replicas != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-load-url, -load-urls, and -load-replicas are mutually exclusive")
	}

	apps := splitList(appsStr)
	if modes > 0 && len(apps) == 0 {
		return errors.New("-load-apps is empty")
	}

	var scenarios []scenario
	switch {
	case url != "" || urls != "":
		if memSpec != "" {
			return errors.New("-mem-freqs has no effect with -load-url/-load-urls; pass it to the dvfs-served daemon instead")
		}
		keys, err := loadKeys(dist, requests, len(apps))
		if err != nil {
			return err
		}
		if url != "" {
			call := urlScenario(strings.TrimRight(url, "/"), apps, keys)
			scenarios = []scenario{{
				fmt.Sprintf("dvfs-served at %s", url),
				func() (selectFunc, func(), error) { return call, func() {}, nil },
			}}
			break
		}
		bases := splitList(urls)
		for i := range bases {
			bases[i] = strings.TrimRight(bases[i], "/")
		}
		call, err := fleetScenario(bases, apps, keys)
		if err != nil {
			return err
		}
		scenarios = []scenario{{
			fmt.Sprintf("client-routed fleet of %d dvfs-served", len(bases)),
			func() (selectFunc, func(), error) { return call, func() {}, nil },
		}}
	case replicas != "":
		if memSpec != "" {
			return errors.New("-mem-freqs has no effect with -load-replicas")
		}
		counts, err := parseConcurrency(replicas)
		if err != nil {
			return fmt.Errorf("-load-replicas: %w", err)
		}
		keys, err := loadKeys(dist, requests, len(apps))
		if err != nil {
			return err
		}
		m, err := loadModels()
		if err != nil {
			return err
		}
		scenarios = routerScenarios(m, counts, apps, keys)
	default:
		m, err := loadModels()
		if err != nil {
			return err
		}
		mems, err := open.ParseMemFreqs(memSpec, sim.GA100().Spec())
		if err != nil {
			return err
		}
		runs := loadRuns(1024)
		keys, err := loadKeys(dist, requests, len(runs))
		if err != nil {
			return err
		}
		capacity, label := 1, "select-miss"
		if keys != nil {
			capacity, label = 64, "select-zipf"
		}
		scenarios = localScenarios(m, runs, keys, mems, capacity, label)
	}

	desc := "Closed-loop concurrent frequency-selection load test. "
	if dist == "zipf" {
		desc += "Workload keys follow a Zipf(s=1.1) distribution over the key space, so the plan cache (capacity 64 locally) holds the hot head and misses the tail; the hit/miss split per concurrency level is the headline number. Local scenario caches start cold at every concurrency level."
	} else {
		desc += "Every request is a cache miss (capacity-starved cache over non-colliding synthetic runs), isolating the contended sweep path the sharded cache and micro-batcher exist for."
	}
	switch {
	case replicas != "":
		desc += " Scenarios scale a dvfs-router front over in-process dvfs-served replicas on loopback sockets; every replica count starts cold, so throughput and the hit/miss split are comparable across counts. Consistent hashing keeps each workload on one replica, so aggregate hit rates should match the single-replica run."
	case urls != "":
		desc += " One scenario: client-side consistent-hash routing over an external dvfs-served fleet."
	case url != "":
		desc += " One scenario: an external dvfs-served daemon (its cache stays warm across concurrency levels)."
	default:
		desc += " Scenarios contrast the PR 3 baseline shape (one global mutex), lock striping alone, and striping plus micro-batched fused sweeps."
	}
	report := loadReport{
		Description: desc,
		Machine:     machineString(),
		Go:          runtime.Version(),
	}
	fmt.Fprintf(w, "%-50s %12s %9s %6s %7s %7s %14s %9s %9s\n", "scenario", "concurrency", "requests", "shed", "hits", "misses", "throughput", "p50_ms", "p99_ms")
	for _, s := range scenarios {
		for _, c := range levels {
			call, cleanup, err := s.mk()
			if err != nil {
				return err
			}
			res, err := measure(s.name, c, requests, call)
			cleanup()
			if err != nil {
				return err
			}
			report.Results = append(report.Results, res)
			fmt.Fprintf(w, "%-50s %12d %9d %6d %7d %7d %11.1f/s %9.3f %9.3f\n",
				res.Scenario, res.Concurrency, res.Requests, res.Shed, res.Hits, res.Misses, res.ThroughputRPS, res.P50Ms, res.P99Ms)
		}
	}

	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	return nil
}
