package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/obs"
)

func testHandler(t *testing.T, batch BatcherConfig) (http.Handler, *Server) {
	t.Helper()
	sw := testSweeper(t)
	srv, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
		Batch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h, err := NewHandler(srv, HTTPConfig{Device: sim.New(sim.GA100(), 3), ProfileSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return h, srv
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPSelectAndStats(t *testing.T) {
	h, _ := testHandler(t, BatcherConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	arch := sim.GA100().Spec()
	clocks := arch.DesignClocks()

	resp, body := postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d, body %s", resp.StatusCode, body)
	}
	var sel selectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatalf("select body %s: %v", body, err)
	}
	if sel.Workload != "DGEMM" || sel.Objective == "" {
		t.Fatalf("select response: %+v", sel)
	}
	found := false
	for _, f := range clocks {
		if f == sel.FreqMHz {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("selected %v MHz is not a design clock", sel.FreqMHz)
	}
	if sel.CacheHit {
		t.Fatal("first select reported a cache hit")
	}

	// Same workload → same deterministic profiling run → cache hit.
	resp, body = postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat select: status %d", resp.StatusCode)
	}
	var sel2 selectResponse
	if err := json.Unmarshal(body, &sel2); err != nil {
		t.Fatal(err)
	}
	if !sel2.CacheHit {
		t.Fatal("repeat select missed the cache")
	}
	if sel2.FreqMHz != sel.FreqMHz {
		t.Fatalf("repeat select changed frequency: %v → %v", sel.FreqMHz, sel2.FreqMHz)
	}

	resp, body = postJSON(t, ts, "/v1/select", `{"workload": "no-such-kernel"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d, body %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts, "/v1/select", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/select")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET select: status %d", getResp.StatusCode)
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats cache: %+v", st.Cache)
	}
	if st.HTTP.Selects != 2 || st.HTTP.Failed == 0 {
		t.Fatalf("stats http: %+v", st.HTTP)
	}
	if st.Cache.Shards == 0 || st.Batch.MaxBatch == 0 {
		t.Fatalf("stats missing config echoes: %+v", st)
	}
}

func TestHTTPProfile(t *testing.T) {
	h, srv := testHandler(t, BatcherConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/profile", `{"workload": "STREAM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: status %d, body %s", resp.StatusCode, body)
	}
	var prof profileResponse
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatal(err)
	}
	nF := len(srv.Sweeper().Freqs())
	if len(prof.Profiles) != nF {
		t.Fatalf("profile rows %d, want %d", len(prof.Profiles), nF)
	}
	if prof.ExecTimeSec <= 0 {
		t.Fatalf("exec time %v", prof.ExecTimeSec)
	}
	for i, p := range prof.Profiles {
		if p.PowerWatts <= 0 || p.TimeSec <= 0 || p.FreqMHz <= 0 {
			t.Fatalf("row %d not positive: %+v", i, p)
		}
		if want := p.PowerWatts * p.TimeSec; p.EnergyJoules != want {
			t.Fatalf("row %d energy %v != power·time %v", i, p.EnergyJoules, want)
		}
	}
}

// TestHTTPOverloadSheds is the acceptance-criterion load test: with the
// dispatcher stalled, fire 10× the queue bound in concurrent requests.
// Every response must be 200 or 429 (zero panics / hangs / 5xx), at least
// one request must be shed with 429 + Retry-After, and the server must
// still serve normally afterwards.
func TestHTTPOverloadSheds(t *testing.T) {
	const depth = 4
	release := make(chan struct{})
	var hookOnce sync.Once
	started := make(chan struct{})
	testHookBeforeBatch = func(int) {
		hookOnce.Do(func() { close(started) })
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}
	defer func() { testHookBeforeBatch = nil }()

	h, srv := testHandler(t, BatcherConfig{MaxBatch: 1, QueueDepth: depth})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Distinct workloads profile to distinct runs, so every request is a
	// cache miss that needs the (stalled) batcher.
	names := []string{"DGEMM", "STREAM", "NW", "LAMMPS", "GROMACS", "NAMD"}

	// Prime: one request occupies the dispatcher inside the hook.
	primeDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(`{"workload": "DGEMM"}`))
		if err != nil {
			primeDone <- 0
			return
		}
		resp.Body.Close()
		primeDone <- resp.StatusCode
	}()
	<-started

	const total = 10 * depth
	codes := make(chan int, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload": %q}`, names[1+i%(len(names)-1)])
			resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				codes <- 0
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			codes <- resp.StatusCode
		}(i)
	}
	// With the dispatcher stalled the queue cannot drain, so once more
	// sweep buckets have submitted than QueueDepth one must shed. Wait for
	// that before releasing — queued requests block until the release, so
	// releasing must precede wg.Wait().
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Batch.Shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shed observed with the dispatcher stalled")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if code := <-primeDone; code != http.StatusOK {
		t.Fatalf("prime request: status %d", code)
	}

	shed := 0
	for i := 0; i < total; i++ {
		switch code := <-codes; code {
		case http.StatusOK, http.StatusTooManyRequests:
			if code == http.StatusTooManyRequests {
				shed++
			}
		default:
			t.Fatalf("unexpected status %d under overload", code)
		}
	}
	if shed == 0 {
		t.Fatal("no request shed at 10x the queue bound")
	}

	// The server survived: a fresh request completes normally.
	resp, body := postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload select: status %d, body %s", resp.StatusCode, body)
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.HTTP.Shed == 0 || st.Batch.Shed == 0 {
		t.Fatalf("shed not counted: %+v", st)
	}
}

func TestNewHandlerValidation(t *testing.T) {
	sw := testSweeper(t)
	srv, err := NewServer(sw, ServerConfig{Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := NewHandler(nil, HTTPConfig{Device: sim.New(sim.GA100(), 1)}); err == nil {
		t.Fatal("nil server accepted")
	}
	if _, err := NewHandler(srv, HTTPConfig{}); err == nil {
		t.Fatal("nil device accepted")
	}
}

// TestHTTPMemAxisWireCompat pins the JSON wire contract of the 2-D
// extension: a core-only server's response bytes carry none of the new
// fields (clients of the pre-grid API see identical payloads), while a
// grid server reports the selected memory P-state, a memory clock per
// profile point, and the memory-axis clamp share.
func TestHTTPMemAxisWireCompat(t *testing.T) {
	h, _ := testHandler(t, BatcherConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, path := range []string{"/v1/select", "/v1/profile"} {
		resp, body := postJSON(t, ts, path, `{"workload": "DGEMM"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("1-D %s: status %d, body %s", path, resp.StatusCode, body)
		}
		for _, key := range []string{"mem_freq_mhz", "clamped_mem"} {
			if bytes.Contains(body, []byte(key)) {
				t.Fatalf("core-only %s response leaks the 2-D field %q:\n%s", path, key, body)
			}
		}
	}

	arch := sim.GA100().Spec()
	sw, err := testModels(t).NewSweeper(arch, arch.DesignClocks(), arch.MemClocks())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h2, err := NewHandler(srv, HTTPConfig{Device: sim.New(sim.GA100(), 3), ProfileSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()

	resp, body := postJSON(t, ts2, "/v1/select", `{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("2-D select: status %d, body %s", resp.StatusCode, body)
	}
	var sel selectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if !arch.IsSupportedMemClock(sel.MemFreqMHz) {
		t.Fatalf("2-D select returned memory clock %v, not a P-state in %v", sel.MemFreqMHz, arch.MemClocks())
	}

	resp, body = postJSON(t, ts2, "/v1/profile", `{"workload": "DGEMM"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("2-D profile: status %d, body %s", resp.StatusCode, body)
	}
	var prof profileResponse
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Profiles) != sw.GridSize() {
		t.Fatalf("2-D profile has %d points, want the full grid %d", len(prof.Profiles), sw.GridSize())
	}
	for i, p := range prof.Profiles {
		if !arch.IsSupportedMemClock(p.MemFreqMHz) {
			t.Fatalf("profile point %d memory clock %v is not a P-state", i, p.MemFreqMHz)
		}
	}
	if prof.ClampedMem > prof.Clamped {
		t.Fatalf("memory-axis clamp share %d exceeds total %d", prof.ClampedMem, prof.Clamped)
	}
}

// TestHTTPStatsShardsAndUptime pins the /v1/stats additions: an
// uptime_seconds field and a per-shard counter breakdown whose totals
// reconcile with the aggregate cache counters.
func TestHTTPStatsShardsAndUptime(t *testing.T) {
	h, srv := testHandler(t, BatcherConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
	if len(st.Shards) != srv.Cache().Shards() {
		t.Fatalf("shards %d, want %d", len(st.Shards), srv.Cache().Shards())
	}
	var hits, misses uint64
	for _, ss := range st.Shards {
		hits += ss.Hits
		misses += ss.Misses
	}
	if hits != st.Cache.Hits || misses != st.Cache.Misses {
		t.Fatalf("per-shard totals (%d hits, %d misses) != aggregate (%d, %d)", hits, misses, st.Cache.Hits, st.Cache.Misses)
	}
	// The wire field names are part of the contract.
	var shape struct {
		UptimeSeconds *float64          `json:"uptime_seconds"`
		Shards        []json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	if shape.UptimeSeconds == nil || shape.Shards == nil {
		t.Fatalf("stats body missing uptime_seconds/shards: %s", raw)
	}
}

// TestHTTPMetricsEndpoint: the daemon's /metrics scrape carries request
// histograms, cache counters (aggregate and per-shard), and the batcher
// queue-depth gauge.
func TestHTTPMetricsEndpoint(t *testing.T) {
	h, _ := testHandler(t, BatcherConfig{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	postJSON(t, ts, "/v1/profile", `{"workload": "STREAM"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, series := range []string{
		"dvfs_served_selects_total 2",
		"dvfs_served_profiles_total 1",
		"dvfs_served_cache_hits_total 1",
		"dvfs_served_cache_misses_total 1",
		"dvfs_served_batch_queue_depth 0",
		"dvfs_served_uptime_seconds",
		`dvfs_served_request_seconds_count{route="select"} 2`,
		`dvfs_served_request_seconds_count{route="profile"} 1`,
		`dvfs_served_cache_shard_hits_total{shard="0"}`,
		"# TYPE dvfs_served_request_seconds histogram",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, body)
		}
	}
}

// TestHTTPRequestLogging: a logger wired through HTTPConfig receives one
// line per request carrying the workload name, status, and hit flag.
func TestHTTPRequestLogging(t *testing.T) {
	sw := testSweeper(t)
	srv, err := NewServer(sw, ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, 1)
	h, err := NewHandler(srv, HTTPConfig{Device: sim.New(sim.GA100(), 3), ProfileSeed: 11, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)
	postJSON(t, ts, "/v1/select", `{"workload": "DGEMM"}`)

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	for i, want := range []string{"hit=false", "hit=true"} {
		if !strings.Contains(lines[i], `workload="DGEMM"`) || !strings.Contains(lines[i], "status=200") || !strings.Contains(lines[i], want) {
			t.Fatalf("line %d missing fields (want %s): %s", i, want, lines[i])
		}
		if !strings.Contains(lines[i], "path=/v1/select") || !strings.Contains(lines[i], "dur_us=") {
			t.Fatalf("line %d malformed: %s", i, lines[i])
		}
	}
}

// BenchmarkWriteJSON pins the pooled response encoder. The pool removes
// the per-response json.Encoder construction and output buffer growth;
// remaining allocations are encoding/json internals.
func BenchmarkWriteJSON(b *testing.B) {
	resp := selectResponse{Workload: "DGEMM", Objective: "edp", FreqMHz: 1200, EnergyPct: -12.5, TimePct: 3.1}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, &resp)
		}
	})
}
