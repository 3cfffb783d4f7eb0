// Command bench is the repository benchmark. It composes the real stack in
// one process through public constructors only — dvfs-router in front of
// two dvfs-served replicas on loopback, the streaming governor on a
// simulated GA100, the fleet simulator — drives one of four workloads for a
// fixed time, checks every answer against a reference, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it through bench/run.sh from the repository root, or from this
// directory:
//
//	go run . --workload routed-hit --seed 1 --seconds 25 --trace 0
//
// Without --workload it runs every workload in turn, each ending in its
// own JSON line, and exits 1 if any of them failed.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// per-layer run: it wraps the layers' public seams from outside (HTTP
// middleware, a backend.Device wrapper, a governor.WorkloadStream wrapper),
// records spans in memory, prints a self-time table and writes the spans
// as JSON to --trace-out.
//
// A wrong answer prints the result with "correct": false and exits 1; any
// other failure exits 1 without printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// scale multiplies every size the workloads fix (items per governor
	// pass, arrivals per fleet run, warm-up requests, set-up repetitions)
	// so a smoke test can run every workload in seconds. 1 is the
	// benchmark as calibrated.
	scale float64
}

// measured returns the run's measurement time.
func (c config) measured() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// scaled returns n scaled by the run's scale factor, at least 1.
func (c config) scaled(n int) int {
	v := int(math.Round(float64(n) * c.scale))
	if v < 1 {
		return 1
	}
	return v
}

// workload is one traffic mix.
type workload struct {
	name string
	run  func(cfg config, w io.Writer) (*result, error)
}

var suite = []workload{
	{"routed-hit", func(cfg config, w io.Writer) (*result, error) { return runRouted(cfg, routedHit, w) }},
	{"routed-miss", func(cfg config, w io.Writer) (*result, error) { return runRouted(cfg, routedMiss, w) }},
	{"governed-stream", runGoverned},
	{"fleet-zipf", runFleet},
}

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MiB"},
	{"energy_saved_pct", "%"},
}

var perLayer = []metricDef{
	{"http.client_us", "us"},
	{"router.self_us", "us"},
	{"router.replica_share_max", "ratio"},
	{"serve.self_us", "us"},
	{"dcgm.profile_us", "us"},
	{"core.plancache.hit_ratio", "ratio"},
	{"core.plancache.evictions_per_op", "count"},
	{"serve.batch_size_mean", "count"},
	{"core.sweep_us", "us"},
	{"serve.wait_us_est", "us"},
	{"governor.item_us", "us"},
	{"governor.tune_item_us", "us"},
	{"backend.sample_us", "us"},
	{"governor.self_us", "us"},
	{"governor.reprofile_ratio", "ratio"},
	{"governor.repin_ratio", "ratio"},
	{"governor.phase_hit_ratio", "ratio"},
	{"fleet.decision_p50_ns", "ns"},
	{"fleet.decision_p99_ns", "ns"},
	{"fleet.loop_allocs", "count"},
	{"fleet.events_per_arrival", "count"},
	{"budget_closure_pct", "%"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the counts of attempted and failed
// operations, whether every answer matched its reference, and the metrics
// of the run's kind (end-to-end or per-layer).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// set records which metrics the workload measured; the rest do not
	// apply to it and report 0.
	set map[string]bool
}

// newResult returns a result holding every metric of the run's kind at 0.
func newResult(trace bool) *result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &result{Correct: true, Metrics: map[string]metric{}, set: map[string]bool{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// put sets a declared metric; setting an undeclared one is a bug.
func (r *result) put(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
	r.set[name] = true
}

// count folds a phase's tally into the run's totals.
func (r *result) count(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if t.wrong > 0 {
		r.Correct = false
	}
}

// print writes the metric table and, last, the JSON line.
func (r *result) print(w io.Writer, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", d.name, m.Value)
		}
		note := ""
		if !r.set[d.name] {
			note = "  (n/a for this workload)"
		}
		fmt.Fprintf(w, "metric %-32s %14.6g %s%s\n", d.name, m.Value, d.unit, note)
	}
	fmt.Fprintf(w, "total: attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames()+" (default every one in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant, 0 the end-to-end one")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file written by --trace 1 (default .bench_build/trace-<workload>.json)")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplier on the workloads' fixed sizes (smoke tests use 0.02)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload != "" {
		os.Exit(run(cfg, os.Stdout, os.Stderr))
	}
	code := 0
	for _, wl := range suite {
		c := cfg
		c.workload = wl.name
		code = max(code, run(c, os.Stdout, os.Stderr))
	}
	os.Exit(code)
}

// run executes one benchmark run and returns the process exit code.
func run(cfg config, stdout, stderr io.Writer) int {
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/trace-" + cfg.workload + ".json"
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := res.print(stdout, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: an answer did not match its reference")
		return 1
	}
	return 0
}

func execute(cfg config, w io.Writer) (*result, error) {
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, errors.New("--seconds and --scale must be positive")
	}
	for _, wl := range suite {
		if wl.name == cfg.workload {
			fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  scale %g  GOMAXPROCS %d  NumCPU %d\n",
				cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, runtime.GOMAXPROCS(0), runtime.NumCPU())
			before := hostProbeMs()
			res, err := wl.run(cfg, w)
			fmt.Fprintf(w, "host probe: %.3f ms before, %.3f ms after (fixed work; it doubles while the host is contended)\n", before, hostProbeMs())
			return res, err
		}
	}
	return nil, fmt.Errorf("unknown --workload %q (have %s)", cfg.workload, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(suite))
	for i, wl := range suite {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// latencyTailQ is the tail percentile of every latency metric. An
// open-loop window holds at least 200 requests, so ten lie beyond it. The
// fleet's windows hold only a few Runs, so there it reads the window's
// slowest Run.
const latencyTailQ = 0.95

// Timing metrics are computed per window of about window length, then
// read from the run's fastest tenth of windows: the fastQ quantile of
// window rates, the 1−fastQ quantile of window latencies. On a host whose
// cores are shared with other tenants a fixed loop runs at full or at
// half speed, each core on its own, in spells of 50 ms to over a second.
// How much of a run falls into slow spells differs between runs by far
// more than any useful regression bound, and a median over windows
// follows that share. On a quiet host nearly every run still has a tenth
// of 100 ms windows that fell into fast spells. A regression slows those
// too.
const (
	window = 100 * time.Millisecond
	fastQ  = 0.9
)

// windows holds a run's per-window rates and latency percentiles.
type windows struct {
	rates, p50s, tails []float64
}

// rate adds a window that completed ops operations in d.
func (ws *windows) rate(ops int64, d time.Duration) {
	ws.rates = append(ws.rates, float64(ops)/d.Seconds())
}

// latency adds the p50 and tail of a window's latencies; lat is sorted in
// place.
func (ws *windows) latency(lat []float64) {
	ws.p50s = append(ws.p50s, quantile(lat, 0.5))
	ws.tails = append(ws.tails, quantile(lat, latencyTailQ))
}

// print writes every window's values, in order.
func (ws windows) print(w io.Writer, unit string) {
	fmt.Fprintf(w, "window rates: %s %s\n", fmtList(ws.rates), unit)
	fmt.Fprintf(w, "window p50s: %s ms\n", fmtList(ws.p50s))
	fmt.Fprintf(w, "window p%g: %s ms\n", latencyTailQ*100, fmtList(ws.tails))
}

// opsPerSec is the rate of the fast windows.
func (ws windows) opsPerSec() float64 { return quantile(append([]float64(nil), ws.rates...), fastQ) }

// p50 is the p50 of the fast windows.
func (ws windows) p50() float64 { return quantile(append([]float64(nil), ws.p50s...), 1-fastQ) }

// tail is the tail of the fast windows.
func (ws windows) tail() float64 { return quantile(append([]float64(nil), ws.tails...), 1-fastQ) }

// cutter cuts a sequence of timed operations into windows: a window closes
// once its operations' times add up to the window length.
type cutter struct {
	windows
	lat []float64 // ms, one per timed call in the open window
	sum float64   // ms
	ops int64     // operations in the open window
}

// add appends one timed call of ops operations that took tookMs
// milliseconds.
func (c *cutter) add(ops int64, tookMs float64) {
	c.lat = append(c.lat, tookMs)
	c.sum += tookMs
	c.ops += ops
	if c.sum >= float64(window)/float64(time.Millisecond) {
		c.close()
	}
}

func (c *cutter) close() {
	c.rate(c.ops, time.Duration(c.sum*float64(time.Millisecond)))
	c.latency(c.lat)
	c.lat, c.sum, c.ops = c.lat[:0], 0, 0
}

// done closes a last, partial window when no window has closed yet.
func (c *cutter) done() {
	if len(c.rates) == 0 && c.ops > 0 {
		c.close()
	}
}

func printPhase(w io.Writer, name string, t tally, elapsed time.Duration) {
	fmt.Fprintf(w, "phase %s: %.2fs, attempted %d, ok %d, failed %d, wrong %d\n",
		name, elapsed.Seconds(), t.attempted, t.ok, t.failed, t.wrong)
}

// setupRepeats is how many times a run builds its stack; setup_s is the
// median, and only the last build is measured.
const setupRepeats = 5

// timeSetups runs build cfg.scaled(setupRepeats) times, closes every build
// but the last, prints each set-up time and returns the last build with
// the median time.
func timeSetups[T any](cfg config, w io.Writer, build func() (T, error), closeFn func(T)) (T, float64, error) {
	n := cfg.scaled(setupRepeats)
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		t0 := time.Now()
		b, err := build()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = b
	}
	fmt.Fprintf(w, "setup: %d builds, seconds %s\n", n, fmtList(secs))
	return last, median(secs), nil
}

// heapLiveMiB forces collections and returns the live heap.
func heapLiveMiB() float64 {
	// The first collection moves sync.Pool contents to the victim caches,
	// the second frees them: what is left is state the stack keeps.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostProbeMs times a fixed loop of floating-point work, median of five.
// On a shared host the whole machine slows down for minutes at a time;
// the probe shows which speed a run saw. It is printed, never reported.
func hostProbeMs() float64 {
	var times []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		s := 0.0
		for i := 0; i < 5_000_000; i++ {
			s += float64(i&7) * 1.0000001
		}
		runtime.KeepAlive(s) // keeps the loop from being optimized away
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
