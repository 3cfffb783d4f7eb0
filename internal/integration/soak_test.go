// Package integration exercises the built binaries end to end: real
// `go build` artifacts, real processes, real sockets. Everything else in
// the repo tests packages in-process; this is the one place the shipped
// dvfs-served + dvfs-router pair is proven to boot, route, agree, and
// drain exactly as the README describes.
package integration

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/stats"
	"gpudvfs/internal/workloads"
)

// buildBinaries compiles both daemons into a tempdir. The toolchain is the
// one running the test, so this never drifts from tier-1 builds.
func buildBinaries(t *testing.T) (served, router string) {
	t.Helper()
	dir := t.TempDir()
	served = filepath.Join(dir, "dvfs-served")
	router = filepath.Join(dir, "dvfs-router")
	for bin, pkg := range map[string]string{served: "gpudvfs/cmd/dvfs-served", router: "gpudvfs/cmd/dvfs-router"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return served, router
}

// saveSoakModels writes paper-shaped random-weight models for the daemons
// to load — selection identity holds for any weights because every replica
// loads the same files.
func saveSoakModels(t *testing.T) string {
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
	dir := filepath.Join(t.TempDir(), "models")
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// daemon is one spawned binary plus the address it announced on stderr.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	errc chan error // wait result
}

// startDaemon execs bin with args, waits for the "listening on <addr>"
// stderr line, and keeps draining stderr so the child never blocks on a
// full pipe during the soak.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	d := &daemon{cmd: cmd, errc: make(chan error, 1)}
	go func() { d.errc <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // no-op if already exited
		<-d.errc
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				if len(fields) > 0 {
					select {
					case addrCh <- strings.TrimSuffix(fields[0], ","):
					default:
					}
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case err := <-d.errc:
		t.Fatalf("%s exited before announcing its address: %v", bin, err)
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never announced its address", bin)
	}
	return d
}

// sigterm delivers SIGTERM and asserts a clean exit within the drain window.
func sigterm(t *testing.T, name string, d *daemon) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", name, err)
	}
	select {
	case err := <-d.errc:
		d.errc <- err // keep Cleanup's receive from blocking, on failure too
		if err != nil {
			t.Fatalf("%s exited non-zero after SIGTERM: %v", name, err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not drain within 15s of SIGTERM", name)
	}
}

func soakSelect(client *http.Client, base, app string) ([]byte, int, error) {
	body := fmt.Sprintf(`{"workload": %q}`, app)
	resp, err := client.Post(base+"/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// steady returns the steady-state (cache-hit) select response: the second
// answer for a name, after the first has populated the plan cache.
func steady(t *testing.T, client *http.Client, base, app string) []byte {
	t.Helper()
	var last []byte
	for i := 0; i < 2; i++ {
		b, code, err := soakSelect(client, base, app)
		if err != nil {
			t.Fatalf("select %s at %s: %v", app, base, err)
		}
		if code != http.StatusOK {
			t.Fatalf("select %s at %s: status %d: %s", app, base, code, b)
		}
		last = b
	}
	return last
}

// TestSoakBinaries is the shipped-artifact smoke test: two dvfs-served
// replicas and a dvfs-router front, built and executed as real binaries,
// hammered with mixed hit/miss traffic, checked for cross-replica
// selection identity, then drained with SIGTERM.
func TestSoakBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs real binaries")
	}
	servedBin, routerBin := buildBinaries(t)
	models := saveSoakModels(t)

	repA := startDaemon(t, servedBin, "-addr", "127.0.0.1:0", "-models", models, "-seed", "11")
	repB := startDaemon(t, servedBin, "-addr", "127.0.0.1:0", "-models", models, "-seed", "11")
	urlA, urlB := "http://"+repA.addr, "http://"+repB.addr
	front := startDaemon(t, routerBin, "-addr", "127.0.0.1:0",
		"-replicas", urlA+","+urlB, "-health-interval", "100ms")
	frontURL := "http://" + front.addr
	client := &http.Client{Timeout: 30 * time.Second}

	all := workloads.Names()
	if len(all) < 8 {
		t.Fatalf("workload registry too small for a mixed soak: %d names", len(all))
	}
	apps := all[:6]

	// Cross-replica identity: both replicas run the same models and profile
	// deterministically by name, so their steady answers must be
	// byte-identical — and the routed answer must match them.
	for _, app := range apps {
		a := steady(t, client, urlA, app)
		b := steady(t, client, urlB, app)
		if !bytes.Equal(a, b) {
			t.Fatalf("replicas disagree on %s:\nA: %s\nB: %s", app, a, b)
		}
		routed := steady(t, client, frontURL, app)
		if !bytes.Equal(routed, a) {
			t.Fatalf("routed answer for %s differs from replicas:\nrouted: %s\nreplica: %s", app, routed, a)
		}
	}

	// Soak: concurrent mixed hit/miss traffic through the front. The first
	// six names are warm (hits); the rest of the registry is cold on
	// arrival (misses).
	soakApps := all
	const workers, perWorker = 8, 50
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
				app := soakApps[(w+i)%len(soakApps)]
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

	// Post-soak, every routed answer is stable: repeat queries return
	// byte-identical cache hits. (Routed answers are not compared against a
	// fresh replica here: plan-cache keys quantize features, so two names
	// can share a key and the survivor depends on arrival order — a cache
	// property, not a routing one. The pre-soak phase above, where both
	// replicas fill in the same order, is the cross-replica identity check.)
	for _, app := range soakApps {
		first := steady(t, client, frontURL, app)
		again := steady(t, client, frontURL, app)
		if !bytes.Equal(first, again) {
			t.Fatalf("post-soak answer for %s is unstable:\nfirst: %s\nagain: %s", app, first, again)
		}
		if !strings.Contains(string(again), `"cache_hit":true`) {
			t.Fatalf("post-soak steady answer for %s is not a cache hit: %s", app, again)
		}
	}

	// Router stats should show both replicas up and all traffic forwarded.
	resp, err := client.Get(frontURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Requests uint64 `json:"requests"`
		Replicas []struct {
			Up        bool   `json:"up"`
			Forwarded uint64 `json:"forwarded"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Replicas) != 2 || !st.Replicas[0].Up || !st.Replicas[1].Up {
		t.Fatalf("router stats: %+v", st)
	}
	if st.Replicas[0].Forwarded == 0 || st.Replicas[1].Forwarded == 0 {
		t.Fatalf("soak traffic did not reach both replicas: %+v", st)
	}

	// Graceful drain, front first so no requests strand mid-proxy.
	sigterm(t, "dvfs-router", front)
	sigterm(t, "replica A", repA)
	sigterm(t, "replica B", repB)
}
