package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/router"
	"gpudvfs/internal/stats"
	"gpudvfs/internal/workloads"
)

// recordTrace collects a max-clock profiling campaign for names on the sim
// backend and writes it as the CSV a replay-backed daemon serves from.
func recordTrace(t *testing.T, names []string) string {
	t.Helper()
	dev := sim.New(sim.GA100(), 23)
	coll := dcgm.NewCollector(dev, dcgm.Config{
		Freqs: []float64{sim.GA100().Spec().MaxFreqMHz},
		Runs:  1,
		Seed:  24,
	})
	var recorded []dcgm.Run
	for _, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := coll.CollectWorkload(k)
		if err != nil {
			t.Fatal(err)
		}
		recorded = append(recorded, runs...)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := backend.WriteRunsFile(path, recorded); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplaySoakBinaries is the recorded-telemetry variant of the binary
// soak: two dvfs-served replicas serve selections from the same replay
// trace behind a router. Replay is fully deterministic, so replica
// answers must be byte-identical, the routed answer must match, and a
// concurrent hammer must finish clean.
func TestReplaySoakBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs real binaries")
	}
	servedBin, routerBin := buildBinaries(t)
	models := saveSoakModels(t)
	apps := []string{"DGEMM", "STREAM", "NW", "LAMMPS", "BERT", "LSTM"}
	trace := recordTrace(t, apps)

	repA := startDaemon(t, servedBin, "-addr", "127.0.0.1:0", "-models", models,
		"-backend", "replay", "-trace", trace)
	repB := startDaemon(t, servedBin, "-addr", "127.0.0.1:0", "-models", models,
		"-backend", "replay", "-trace", trace)
	urlA, urlB := "http://"+repA.addr, "http://"+repB.addr
	front := startDaemon(t, routerBin, "-addr", "127.0.0.1:0",
		"-replicas", urlA+","+urlB, "-health-interval", "100ms")
	frontURL := "http://" + front.addr
	client := &http.Client{Timeout: 30 * time.Second}

	for _, app := range apps {
		a := steady(t, client, urlA, app)
		b := steady(t, client, urlB, app)
		if !bytes.Equal(a, b) {
			t.Fatalf("replay replicas disagree on %s:\nA: %s\nB: %s", app, a, b)
		}
		routed := steady(t, client, frontURL, app)
		if !bytes.Equal(routed, a) {
			t.Fatalf("routed replay answer for %s differs:\nrouted: %s\nreplica: %s", app, routed, a)
		}
	}

	// A workload outside the trace must fail loudly, not fabricate a plan.
	if _, code, err := soakSelect(client, frontURL, "GROMACS"); err != nil {
		t.Fatal(err)
	} else if code == http.StatusOK {
		t.Fatal("select for a workload missing from the trace returned 200")
	}

	const workers, perWorker = 6, 40
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				app := apps[(w+i)%len(apps)]
				b, code, err := soakSelect(client, frontURL, app)
				if err == nil && code != http.StatusOK && code != http.StatusTooManyRequests {
					err = fmt.Errorf("status %d: %s", code, b)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("worker %d, request %d (%s): %w", w, i, app, err)
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	sigterm(t, "dvfs-router", front)
	sigterm(t, "replica A", repA)
	sigterm(t, "replica B", repB)
}

// saveChunkyModels writes deliberately oversized random-weight models:
// wide hidden layers make every design-space sweep take real milliseconds
// of forward passes, so a bounded queue observably backs up under
// concurrent load. Answer quality is irrelevant here — only dispatch cost.
func saveChunkyModels(t *testing.T) string {
	t.Helper()
	arch := sim.GA100().Spec()
	wide := nn.Arch{Inputs: 3, Hidden: []int{768, 768, 768}, Outputs: 1, HiddenAct: "selu", OutputAct: "linear"}
	power, err := nn.NewNetwork(wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(wide, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
	dir := filepath.Join(t.TempDir(), "models")
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOverloadShedsThroughRouter saturates a deliberately tiny sweep
// queue (-queue 1, unbatched) with cold misses through the router: some
// requests must shed with 429, every 429 must carry the backend's
// Retry-After header verbatim through the proxy, and the daemon must
// stay healthy enough to serve 200s afterwards.
func TestOverloadShedsThroughRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs real binaries")
	}
	servedBin, routerBin := buildBinaries(t)
	models := saveChunkyModels(t)

	// Queue bound 1, no batching, and the full (core × memory) grid per
	// sweep: each dispatch is as expensive as the stack gets, so sustained
	// concurrency reliably finds the queue occupied.
	rep := startDaemon(t, servedBin, "-addr", "127.0.0.1:0", "-models", models,
		"-seed", "11", "-queue", "1", "-max-batch", "1", "-mem-freqs", "all")
	front := startDaemon(t, routerBin, "-addr", "127.0.0.1:0",
		"-replicas", "http://"+rep.addr, "-health-interval", "100ms")
	frontURL := "http://" + front.addr
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}

	// The saturating hammer rides /v1/profile: unlike select, every
	// profile request is an uncached sweep submission, so sustained
	// concurrency keeps the single-slot queue under continuous pressure.
	apps := workloads.Names()
	const workers, perWorker = 16, 12
	var ok200, shed429, badRetry, other atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				app := apps[(w+i)%len(apps)]
				body := fmt.Sprintf(`{"workload": %q}`, app)
				resp, err := client.Post(frontURL+"/v1/profile", "application/json", strings.NewReader(body))
				if err != nil {
					other.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
					if resp.Header.Get("Retry-After") != "1" {
						badRetry.Add(1)
					}
				default:
					other.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("unexpected failures under overload: %d (200s %d, 429s %d)",
			other.Load(), ok200.Load(), shed429.Load())
	}
	if shed429.Load() == 0 {
		t.Fatalf("queue bound 1 never shed under %d concurrent sweep requests", workers*perWorker)
	}
	if ok200.Load() == 0 {
		t.Fatal("every request shed: the daemon served nothing under overload")
	}
	if badRetry.Load() != 0 {
		t.Fatalf("%d of %d shed responses lost the Retry-After header through the router",
			badRetry.Load(), shed429.Load())
	}

	// The overloaded daemon recovers: a repeat request succeeds as a hit.
	if got := steady(t, client, frontURL, apps[0]); !strings.Contains(string(got), `"cache_hit":true`) {
		t.Fatalf("post-overload steady answer is not a cache hit: %s", got)
	}

	sigterm(t, "dvfs-router", front)
	sigterm(t, "replica", rep)
}

// TestSnapshotWarmRestart proves the warm-start story across a real
// process restart: a daemon drains on SIGTERM, saving its plan-cache
// snapshot; the same binary relaunched on the same snapshot answers its
// very first select as a cache hit, byte-identical to the pre-restart
// steady answer.
func TestSnapshotWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs real binaries")
	}
	servedBin, _ := buildBinaries(t)
	models := saveSoakModels(t)
	snap := filepath.Join(t.TempDir(), "plans.snap")
	args := []string{"-addr", "127.0.0.1:0", "-models", models, "-seed", "11", "-snapshot", snap}

	first := startDaemon(t, servedBin, args...)
	client := &http.Client{Timeout: 30 * time.Second}
	apps := workloads.Names()[:4]
	warm := make(map[string][]byte, len(apps))
	for _, app := range apps {
		warm[app] = steady(t, client, "http://"+first.addr, app)
	}
	sigterm(t, "first daemon", first)

	second := startDaemon(t, servedBin, args...)
	for _, app := range apps {
		b, code, err := soakSelect(client, "http://"+second.addr, app)
		if err != nil || code != http.StatusOK {
			t.Fatalf("post-restart select %s: %v status %d: %s", app, err, code, b)
		}
		// The very first answer after restart is a hit served from the
		// snapshot — no re-profiling, no sweep.
		if !strings.Contains(string(b), `"cache_hit":true`) {
			t.Fatalf("first post-restart select for %s missed the warmed cache: %s", app, b)
		}
		if !bytes.Equal(b, warm[app]) {
			t.Fatalf("post-restart answer for %s diverged:\nbefore: %s\nafter:  %s", app, warm[app], b)
		}
	}
	sigterm(t, "second daemon", second)
}

// sigkill delivers SIGKILL — the crash case, no drain, no snapshot — and
// waits for the process to be reaped so its port is actually free.
func sigkill(t *testing.T, name string, d *daemon) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL %s: %v", name, err)
	}
	select {
	case <-d.errc: // killed processes exit non-zero; any reap is fine
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not die within 15s of SIGKILL", name)
	}
	d.errc <- nil // keep Cleanup's receive from blocking
}

// routerStats fetches and decodes the router's GET /v1/stats.
func routerStats(t *testing.T, client *http.Client, frontURL string) statsSnapshot {
	t.Helper()
	resp, err := client.Get(frontURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

type statsSnapshot struct {
	Requests  uint64 `json:"requests"`
	NoReplica uint64 `json:"no_replica"`
	Replicas  []struct {
		URL       string `json:"url"`
		Up        bool   `json:"up"`
		Forwarded uint64 `json:"forwarded"`
		Errors    uint64 `json:"errors"`
	} `json:"replicas"`
}

// TestReplicaKillFailoverBinaries is the crash-consistency check at the
// binary level: SIGKILL a live replica mid-hammer and the router must (a)
// finish the hammer clean by failing the dead replica's keys over
// clockwise to the survivor, (b) report the replica down, and (c) — once
// the same binary is relaunched on the same address — restore it through
// the health prober and route its keys home again, with every answer
// byte-identical across the whole episode.
func TestReplicaKillFailoverBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs real binaries")
	}
	servedBin, routerBin := buildBinaries(t)
	models := saveSoakModels(t)

	addrArgs := func(addr string) []string {
		return []string{"-addr", addr, "-models", models, "-seed", "11"}
	}
	repA := startDaemon(t, servedBin, addrArgs("127.0.0.1:0")...)
	repB := startDaemon(t, servedBin, addrArgs("127.0.0.1:0")...)
	urlA, urlB := "http://"+repA.addr, "http://"+repB.addr
	front := startDaemon(t, routerBin, "-addr", "127.0.0.1:0",
		"-replicas", urlA+","+urlB, "-health-interval", "100ms")
	frontURL := "http://" + front.addr
	client := &http.Client{Timeout: 30 * time.Second}

	// Rebuild the router's placement locally: same replica identities,
	// same ring — so the test knows exactly which names replica A owns
	// and can assert failover rather than infer it.
	ring, err := router.NewRing([]string{urlA, urlB}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ownedA, ownedB []string
	for _, app := range workloads.Names() {
		if ring.Pick([]byte(app), nil) == 0 {
			ownedA = append(ownedA, app)
		} else {
			ownedB = append(ownedB, app)
		}
	}
	if len(ownedA) == 0 || len(ownedB) == 0 {
		t.Fatalf("degenerate ring split: A owns %v, B owns %v", ownedA, ownedB)
	}
	apps := workloads.Names()

	// Warm every name through the front only — each replica fills its
	// plan cache with exactly the names it owns, in registry order, which
	// is the order the restarted replica will refill in later. (Warming
	// replicas directly would fill them in a different order, and
	// quantized plan keys make answers order-sensitive across collisions.)
	want := make(map[string][]byte, len(apps))
	for _, app := range apps {
		want[app] = steady(t, client, frontURL, app)
	}
	if st := routerStats(t, client, frontURL); len(st.Replicas) != 2 ||
		!st.Replicas[0].Up || !st.Replicas[1].Up || st.Replicas[0].Forwarded == 0 {
		t.Fatalf("pre-kill router stats: %+v", st)
	}

	// Hammer through the front and kill A mid-flight. Every request must
	// still answer 200 (or shed 429): the proxy retries a transport
	// failure on the next clockwise ring node within the same request, so
	// the crash is invisible to clients.
	const workers, perWorker = 6, 40
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		served   atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				app := apps[(w+i)%len(apps)]
				b, code, err := soakSelect(client, frontURL, app)
				if err == nil && code != http.StatusOK && code != http.StatusTooManyRequests {
					err = fmt.Errorf("status %d: %s", code, b)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("worker %d, request %d (%s): %w", w, i, app, err)
					}
					mu.Unlock()
					return
				}
				served.Add(1)
			}
		}(w)
	}
	// Kill A while the hammer is demonstrably in flight: some requests
	// served, the bulk still to come.
	for served.Load() < workers*perWorker/4 {
		time.Sleep(time.Millisecond)
	}
	sigkill(t, "replica A", repA)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// With A dead its keys belong to B, deterministically: routed answers
	// for A-owned names must be byte-identical to B's direct answers, and
	// the forwarded delta must land on B alone.
	before := routerStats(t, client, frontURL)
	if before.Replicas[0].Up {
		t.Fatalf("router still reports the killed replica up: %+v", before)
	}
	for _, app := range ownedA {
		routed := steady(t, client, frontURL, app)
		if direct := steady(t, client, urlB, app); !bytes.Equal(routed, direct) {
			t.Fatalf("failover answer for %s is not the survivor's:\nrouted: %s\ndirect: %s", app, routed, direct)
		}
	}
	after := routerStats(t, client, frontURL)
	if after.Replicas[0].Forwarded != before.Replicas[0].Forwarded {
		t.Fatalf("dead replica kept receiving traffic: %+v -> %+v", before, after)
	}
	if got, min := after.Replicas[1].Forwarded-before.Replicas[1].Forwarded, uint64(2*len(ownedA)); got < min {
		t.Fatalf("survivor forwarded %d requests, want at least %d", got, min)
	}

	// Relaunch the same binary on the same address. Only the prober
	// transitions a replica back up; poll the router until it does.
	repA2 := startDaemon(t, servedBin, addrArgs(repA.addr)...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := routerStats(t, client, frontURL); st.Replicas[0].Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never restored the restarted replica")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Recovered means recovered: A's keys route home again with
	// byte-identical answers (the restarted twin re-profiles
	// deterministically), and the forwarded delta lands on A.
	recovered := routerStats(t, client, frontURL)
	for _, app := range ownedA {
		if routed := steady(t, client, frontURL, app); !bytes.Equal(routed, want[app]) {
			t.Fatalf("post-recovery answer for %s diverged:\nrouted: %s\nwant:   %s", app, routed, want[app])
		}
	}
	final := routerStats(t, client, frontURL)
	if got, min := final.Replicas[0].Forwarded-recovered.Replicas[0].Forwarded, uint64(2*len(ownedA)); got < min {
		t.Fatalf("restarted replica forwarded %d requests, want at least %d", got, min)
	}

	sigterm(t, "dvfs-router", front)
	sigterm(t, "replica A (restarted)", repA2)
	sigterm(t, "replica B", repB)
}
