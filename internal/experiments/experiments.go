// Package experiments regenerates every table and figure in the paper's
// evaluation (plus the motivation study of §2 and the multi-learner
// comparison of §7) from the simulated substrate. Each generator returns a
// Table — a named grid of formatted values — that cmd/dvfs-bench prints
// and bench_test.go exercises.
//
// A Context carries the expensive shared artifacts (collected telemetry,
// trained models, measured evaluation sweeps) and builds each lazily,
// exactly once, so generators compose cheaply.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

// Table is one regenerated artifact: an identifier tying it back to the
// paper ("fig7", "tab3", ...), a title, and a formatted grid.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Fmarkdown writes the table as a GitHub-flavored markdown table with a
// heading, for inclusion in reports like EXPERIMENTS.md.
func (t *Table) Fmarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Config parameterizes a Context.
type Config struct {
	Seed int64 // master seed; 0 means 42
	Runs int   // runs per DVFS configuration; 0 means the paper's 3
	// Workers bounds the goroutines used inside artifact builds (offline
	// collection, cross-validation folds, MI ranking) and is the default
	// fan-out for Prewarm. 0 means GOMAXPROCS. Every artifact is
	// bit-identical for any worker count: each one is built from its own
	// key-derived seeds, never from shared RNG state.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// cacheEntry is one singleflight-memoized artifact: the first caller runs
// the build inside once.Do while later callers for the same key block on
// that Do and then read the settled result. Distinct keys never contend —
// the Context mutex only guards map insertion, not artifact construction.
type cacheEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// Context lazily builds and caches the artifacts the generators share:
// training telemetry and models on GA100, and measured evaluation sweeps
// plus online profiling runs per (architecture, application). All methods
// are safe for concurrent use, and independent artifacts build
// concurrently — the cache serializes only callers of the *same* artifact.
type Context struct {
	cfg Config

	offline cacheEntry[*core.OfflineResult]

	mu       sync.Mutex                                 // guards the maps below, never held during builds
	measured map[string]*cacheEntry[[]dcgm.Run]         // arch/app -> sweep runs
	online   map[string]*cacheEntry[*core.OnlineResult] // arch/app -> online result
}

// NewContext returns a Context with the given configuration.
func NewContext(cfg Config) *Context {
	return &Context{
		cfg:      cfg.withDefaults(),
		measured: map[string]*cacheEntry[[]dcgm.Run]{},
		online:   map[string]*cacheEntry[*core.OnlineResult]{},
	}
}

// entryFor returns the singleflight slot for key, creating it under the
// mutex on first request.
func entryFor[T any](mu *sync.Mutex, m map[string]*cacheEntry[T], key string) *cacheEntry[T] {
	mu.Lock()
	defer mu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &cacheEntry[T]{}
		m[key] = e
	}
	return e
}

// Offline returns the GA100 offline-phase result (collected training
// telemetry, dataset, trained models), building it on first use.
func (c *Context) Offline() (*core.OfflineResult, error) {
	c.offline.once.Do(func() {
		dev := sim.New(sim.GA100(), c.cfg.Seed)
		c.offline.val, c.offline.err = core.OfflineTrain(dev, backend.Workloads(workloads.TrainingSet()),
			dcgm.Config{Runs: c.cfg.Runs, Seed: c.cfg.Seed + 1},
			core.TrainOptions{Seed: 1, Workers: c.cfg.Workers})
	})
	return c.offline.val, c.offline.err
}

// Models returns the GA100-trained power and time models.
func (c *Context) Models() (*core.Models, error) {
	off, err := c.Offline()
	if err != nil {
		return nil, err
	}
	return off.Models, nil
}

func archFor(name string) (sim.Arch, error) { return sim.ArchByName(name) }

// MeasuredRuns returns the measured DVFS sweep (design space × Runs) for
// one application on one architecture, collecting it on first use. The
// sweep's seeds derive only from the (arch, app) key, so concurrent
// collection of different keys yields exactly what serial collection
// would.
func (c *Context) MeasuredRuns(archName, app string) ([]dcgm.Run, error) {
	key := archName + "/" + app
	e := entryFor(&c.mu, c.measured, key)
	e.once.Do(func() {
		arch, err := archFor(archName)
		if err != nil {
			e.err = err
			return
		}
		w, err := workloads.ByName(app)
		if err != nil {
			e.err = err
			return
		}
		dev := sim.New(arch, c.cfg.Seed+hashString(key))
		coll := dcgm.NewCollector(dev, dcgm.Config{Runs: c.cfg.Runs, Seed: c.cfg.Seed + hashString(key) + 1})
		e.val, e.err = coll.CollectWorkload(w)
	})
	return e.val, e.err
}

// MeasuredProfiles returns the per-frequency averaged measured profiles
// for one application on one architecture.
func (c *Context) MeasuredProfiles(archName, app string) ([]objective.Profile, error) {
	runs, err := c.MeasuredRuns(archName, app)
	if err != nil {
		return nil, err
	}
	return core.MeasuredProfiles(runs), nil
}

// Online returns the online-phase result (single max-clock profile and
// model predictions across the design space) for one application on one
// architecture, running it on first use. It waits on the shared offline
// build (models) but never blocks other keys' online runs.
func (c *Context) Online(archName, app string) (*core.OnlineResult, error) {
	key := archName + "/" + app
	e := entryFor(&c.mu, c.online, key)
	e.once.Do(func() {
		off, err := c.Offline()
		if err != nil {
			e.err = err
			return
		}
		arch, err := archFor(archName)
		if err != nil {
			e.err = err
			return
		}
		w, err := workloads.ByName(app)
		if err != nil {
			e.err = err
			return
		}
		dev := sim.New(arch, c.cfg.Seed+hashString(key)+2)
		e.val, e.err = core.OnlinePredict(dev, off.Models, w, dcgm.Config{Seed: c.cfg.Seed + hashString(key) + 3}, nil)
	})
	return e.val, e.err
}

// Prewarm concurrently builds every artifact the full table/figure suite
// consumes: the offline models, the GA100 microbenchmark sweeps, and the
// measured sweeps plus online runs for all real applications on both
// architectures. workers ≤ 0 uses Config.Workers. Because every artifact
// is seeded from its own key, the cache contents after Prewarm are
// bit-identical to building the same artifacts lazily, serially, in any
// order. It returns the first build error encountered.
func (c *Context) Prewarm(workers int) error {
	if workers <= 0 {
		workers = c.cfg.Workers
	}
	var tasks []func() error
	tasks = append(tasks, func() error { _, err := c.Offline(); return err })
	for _, app := range []string{"DGEMM", "STREAM"} {
		app := app
		tasks = append(tasks, func() error { _, err := c.MeasuredRuns("GA100", app); return err })
	}
	for _, archName := range []string{"GA100", "GV100"} {
		for _, app := range RealAppNames() {
			archName, app := archName, app
			tasks = append(tasks, func() error { _, err := c.MeasuredRuns(archName, app); return err })
			tasks = append(tasks, func() error { _, err := c.Online(archName, app); return err })
		}
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	jobs := make(chan func() error)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for task := range jobs {
				if err := task(); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for _, task := range tasks {
		jobs <- task
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EvaluateOnMeasured looks up the measured profile at freq and reports its
// trade-off against the measured maximum-clock reference — how the paper
// scores a predicted selection (the frequency is chosen from predictions,
// but its cost is what actually happens on hardware).
func EvaluateOnMeasured(measured []objective.Profile, freq float64) (objective.TradeOff, error) {
	for _, m := range measured {
		if m.FreqMHz == freq {
			return objective.Evaluate(measured, m)
		}
	}
	return objective.TradeOff{}, fmt.Errorf("experiments: no measured profile at %v MHz", freq)
}

// RealAppNames lists the six evaluation applications in the paper's order.
func RealAppNames() []string {
	apps := workloads.RealApps()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// hashString gives a small deterministic per-key seed offset.
func hashString(s string) int64 {
	var h int64 = 1469598103
	for _, b := range []byte(s) {
		h ^= int64(b)
		h *= 16777619
		h &= (1 << 30) - 1
	}
	return h
}

// buildDataset is a shared helper for generators that need a dataset with
// non-default features built from arbitrary runs on GA100.
func buildDataset(runs []dcgm.Run, features []string, perSample bool) (*dataset.Dataset, error) {
	return dataset.Build(sim.GA100().Spec(), runs, dataset.Options{Features: features, PerSample: perSample})
}
