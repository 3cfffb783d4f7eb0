package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/obs"
	"gpudvfs/internal/serve"
	"gpudvfs/internal/stats"
)

// testWorkloads are registered kernel profiles; each profiles to a
// distinct deterministic run, so they spread across cache buckets and
// (through the ring) across replicas.
var testWorkloads = []string{"DGEMM", "STREAM", "NW", "LAMMPS", "GROMACS", "NAMD"}

// newReplica stands up one complete dvfs-served stack (models → sweeper →
// server → handler) over an httptest listener. Every replica is built
// identically — same deterministic weights, same profile seed — which is
// the deployment invariant the router's identity guarantee rests on.
func newReplica(t testing.TB) *httptest.Server {
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
	m := &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
	sw, err := m.NewSweeper(arch, arch.DesignClocks())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(sw, serve.ServerConfig{
		Cache: core.PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{Device: sim.New(sim.GA100(), 3), ProfileSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// newProxy fronts the given replicas with the background prober disabled —
// tests drive liveness transitions deterministically through request
// failures.
func newProxy(t testing.TB, replicas ...*httptest.Server) *Proxy {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, ts := range replicas {
		urls[i] = ts.URL
	}
	p, err := New(Config{Replicas: urls, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// post issues one POST and returns status + body.
func post(t testing.TB, url, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// steadySelect issues the same select twice and returns the second
// response's bytes — the steady state, where cache_hit is true everywhere
// and response bytes are comparable across replica topologies.
func steadySelect(t testing.TB, url, workload string) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"workload": %q}`, workload)
	for try := 0; ; try++ {
		code, b := post(t, url, "/v1/select", body)
		if code == http.StatusTooManyRequests && try < 50 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("select %s: status %d, body %s", workload, code, b)
		}
		code2, b2 := post(t, url, "/v1/select", body)
		if code2 != http.StatusOK {
			t.Fatalf("repeat select %s: status %d, body %s", workload, code2, b2)
		}
		return b2
	}
}

// TestProxyDifferentialAcrossReplicaCounts is the tentpole acceptance
// test: steady-state selections served through the router over 1, 2, and
// 4 replicas are byte-identical to a standalone single replica. Affinity
// keeps each workload on one replica, and identical replicas compute
// identical plans — so horizontal scale changes throughput, never answers.
func TestProxyDifferentialAcrossReplicaCounts(t *testing.T) {
	reference := newReplica(t)
	want := make(map[string][]byte, len(testWorkloads))
	for _, wl := range testWorkloads {
		want[wl] = steadySelect(t, reference.URL, wl)
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("replicas%d", n), func(t *testing.T) {
			replicas := make([]*httptest.Server, n)
			for i := range replicas {
				replicas[i] = newReplica(t)
			}
			p := newProxy(t, replicas...)
			front := httptest.NewServer(p.Handler())
			defer front.Close()

			for _, wl := range testWorkloads {
				got := steadySelect(t, front.URL, wl)
				if !bytes.Equal(got, want[wl]) {
					t.Fatalf("%s via %d replicas:\n%s\nstandalone:\n%s", wl, n, got, want[wl])
				}
				var sel struct {
					CacheHit bool `json:"cache_hit"`
				}
				if err := json.Unmarshal(got, &sel); err != nil {
					t.Fatal(err)
				}
				if !sel.CacheHit {
					t.Fatalf("%s: steady-state select missed the cache — affinity broken", wl)
				}
			}
			// Affinity, exactly: each workload's two requests (steadySelect)
			// reach the replica the ring assigns its name, and no replica
			// sees anything else. Where the ring puts the names depends on
			// the replicas' random ports; that every request follows it
			// does not.
			wantFwd := make([]uint64, n)
			for _, wl := range testWorkloads {
				wantFwd[p.Ring().Pick([]byte(wl), nil)] += 2
			}
			for i, rep := range p.reps {
				if got := rep.forwarded.Value(); got != wantFwd[i] {
					t.Fatalf("replica %d forwarded %d requests, ring assigns it %d", i, got, wantFwd[i])
				}
			}
		})
	}
}

// TestProxyFailover kills a replica mid-flight: its keys fail over to a
// deterministic survivor, answers stay byte-identical (steady state), and
// untouched workloads keep their original placement.
func TestProxyFailover(t *testing.T) {
	reference := newReplica(t)
	want := make(map[string][]byte, len(testWorkloads))
	for _, wl := range testWorkloads {
		want[wl] = steadySelect(t, reference.URL, wl)
	}

	a, b := newReplica(t), newReplica(t)
	p := newProxy(t, a, b)
	front := httptest.NewServer(p.Handler())
	defer front.Close()

	for _, wl := range testWorkloads {
		if got := steadySelect(t, front.URL, wl); !bytes.Equal(got, want[wl]) {
			t.Fatalf("%s pre-failover differs from standalone", wl)
		}
	}
	if p.reps[0].forwarded.Value() == 0 || p.reps[1].forwarded.Value() == 0 {
		t.Skipf("workload set landed on one replica (forwarded %d/%d); failover needs both sides",
			p.reps[0].forwarded.Value(), p.reps[1].forwarded.Value())
	}

	// Kill replica 0. Its sockets refuse, the first proxied request to it
	// errors, the proxy marks it down and re-Picks onto replica 1.
	a.Close()
	for _, wl := range testWorkloads {
		if got := steadySelect(t, front.URL, wl); !bytes.Equal(got, want[wl]) {
			t.Fatalf("%s post-failover differs from standalone:\n%s\nwant:\n%s", wl, got, want[wl])
		}
	}
	if p.reps[0].up.Load() {
		t.Fatal("dead replica still marked up")
	}
	if p.reps[0].errors.Value() == 0 {
		t.Fatal("no transport error recorded against the dead replica")
	}

	// Failover is deterministic: repeat traffic all lands on the survivor.
	before := p.reps[1].forwarded.Value()
	for _, wl := range testWorkloads {
		steadySelect(t, front.URL, wl)
	}
	if got := p.reps[1].forwarded.Value() - before; got != uint64(2*len(testWorkloads)) {
		t.Fatalf("survivor served %d of %d post-failover requests", got, 2*len(testWorkloads))
	}
}

// TestProxyAllReplicasDown: every backend dead → 503 with a JSON error,
// counted in no_replica, no hang.
func TestProxyAllReplicasDown(t *testing.T) {
	a := newReplica(t)
	p := newProxy(t, a)
	front := httptest.NewServer(p.Handler())
	defer front.Close()
	a.Close()

	code, body := post(t, front.URL, "/v1/select", `{"workload": "DGEMM"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s", code, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %s: %v", body, err)
	}
	if p.noReplica.Value() == 0 {
		t.Fatal("no_replica not counted")
	}

	// healthz agrees.
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with all replicas down: %d", resp.StatusCode)
	}
}

// TestProxyStatsAndMetrics pins the router's observability surfaces: the
// /v1/stats JSON shape and the /metrics exposition series.
func TestProxyStatsAndMetrics(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	p := newProxy(t, a, b)
	front := httptest.NewServer(p.Handler())
	defer front.Close()

	for _, wl := range testWorkloads[:3] {
		steadySelect(t, front.URL, wl)
	}

	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 6 {
		t.Fatalf("requests %d, want 6", st.Requests)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("replicas %d", len(st.Replicas))
	}
	var forwarded uint64
	for _, rs := range st.Replicas {
		if rs.URL == "" || !rs.Up {
			t.Fatalf("replica stats %+v", rs)
		}
		forwarded += rs.Forwarded
	}
	if forwarded != 6 {
		t.Fatalf("forwarded %d, want 6", forwarded)
	}

	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"dvfs_router_requests_total 6",
		"dvfs_router_no_replica_total 0",
		`dvfs_router_replica_up{replica="` + a.URL + `"} 1`,
		`dvfs_router_replica_forwarded_total{replica="`,
		`dvfs_router_proxy_seconds_bucket{route="select",le="+Inf"} 6`,
		`dvfs_router_proxy_seconds_count{route="select"} 6`,
		"# TYPE dvfs_router_proxy_seconds histogram",
	} {
		if !bytes.Contains(mb, []byte(series)) {
			t.Fatalf("/metrics missing %q:\n%s", series, mb)
		}
	}
}

// TestProxyErrorPassthrough: replica-level HTTP errors (unknown workload →
// 404, bad body → 400 from the replica's own decoder) pass through the
// router verbatim — a live replica's answer is canonical, including its
// refusals.
func TestProxyErrorPassthrough(t *testing.T) {
	a := newReplica(t)
	p := newProxy(t, a)
	front := httptest.NewServer(p.Handler())
	defer front.Close()

	code, body := post(t, front.URL, "/v1/select", `{"workload": "no-such-kernel"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d, body %s", code, body)
	}
	wantCode, wantBody := post(t, a.URL, "/v1/select", `{"workload": "no-such-kernel"}`)
	if code != wantCode || !bytes.Equal(body, wantBody) {
		t.Fatalf("routed error differs from replica's: %d %s vs %d %s", code, body, wantCode, wantBody)
	}

	// Bodies without an extractable workload name still route (whole-body
	// key) and surface the replica's 400.
	code, _ = post(t, front.URL, "/v1/select", `{not json`)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	if p.reps[0].up.Load() != true {
		t.Fatal("replica HTTP error flipped liveness")
	}
}

// TestProxyProfilePassthrough: /v1/profile rides the same affinity path.
func TestProxyProfilePassthrough(t *testing.T) {
	reference := newReplica(t)
	_, want := post(t, reference.URL, "/v1/profile", `{"workload": "DGEMM"}`)

	a, b := newReplica(t), newReplica(t)
	p := newProxy(t, a, b)
	front := httptest.NewServer(p.Handler())
	defer front.Close()

	code, got := post(t, front.URL, "/v1/profile", `{"workload": "DGEMM"}`)
	if code != http.StatusOK {
		t.Fatalf("profile: status %d, body %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("routed profile differs from standalone:\n%s\nwant:\n%s", got, want)
	}
}

// TestProxyHealthProbeRecovers: the background prober marks a replica that
// answers /v1/stats as up again after request failures took it down.
func TestProxyHealthProbeRecovers(t *testing.T) {
	a := newReplica(t)
	urls := []string{a.URL}
	p, err := New(Config{Replicas: urls, HealthInterval: 5 * time.Millisecond, HealthTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.reps[0].up.Store(false) // as a failed request would
	deadline := time.Now().Add(5 * time.Second)
	for !p.reps[0].up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober never restored a healthy replica")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProxyConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: []string{"not a url"}, HealthInterval: -1}); err == nil {
		t.Fatal("relative URL accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://h:1", "http://h:1/"}, HealthInterval: -1}); err == nil {
		t.Fatal("duplicate replica accepted after normalization")
	}
	p, err := New(Config{Replicas: []string{"http://127.0.0.1:1/"}, HealthInterval: -1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.reps[0].base != "http://127.0.0.1:1" {
		t.Fatalf("trailing slash kept: %q", p.reps[0].base)
	}
	if p.Ring().Replicas() != 1 {
		t.Fatalf("ring over %d replicas", p.Ring().Replicas())
	}
}
