package governor

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strings"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/obs"
	"gpudvfs/internal/workloads"
)

// memoConfig is DefaultConfig with phase memoization enabled — the
// streaming+memo arm's configuration.
func memoConfig() Config {
	cfg := DefaultConfig()
	cfg.PhaseCacheSize = 8
	return cfg
}

// TestPhaseCacheRePinOnRevisit is the tentpole's headline behaviour: on
// the period-4 alternating stream, every retune after the first visit to
// each phase is satisfied from the phase cache — zero re-profiles after
// the alphabet is learned — and the re-pinned clocks match what a fresh
// tune picked for the same phase.
func TestPhaseCacheRePinOnRevisit(t *testing.T) {
	m := quickModels(t)
	const period, total = 4, 24

	g, err := New(sim.New(sim.GA100(), 21), m, memoConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), workloads.PhaseShifting(period, total))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != total {
		t.Fatalf("runs = %d, want %d", rep.Runs, total)
	}
	if rep.RePins < 1 {
		t.Fatalf("no cache re-pins on a revisiting stream: %+v", rep)
	}
	// Two phases in the alphabet: after one profiling run per phase, every
	// further retune must be a re-pin.
	if rep.TunedRuns > 2 {
		t.Fatalf("%d profiling runs for a 2-phase alphabet: %+v", rep.TunedRuns, rep)
	}
	if got := rep.TunedRuns - 1 + rep.RePins; rep.Retunes != got {
		t.Fatalf("retunes %d != re-profiles %d + re-pins %d",
			rep.Retunes, rep.TunedRuns-1, rep.RePins)
	}
	pc := g.PhaseCache()
	if pc.Hits != rep.RePins {
		t.Fatalf("cache hits %d != report re-pins %d", pc.Hits, rep.RePins)
	}
	if pc.Phases != 2 {
		t.Fatalf("memoized %d phases, want 2", pc.Phases)
	}
	if st := g.Stats(); st.RePins != rep.RePins || st.Retunes != rep.Retunes {
		t.Fatalf("stats (%d re-pins, %d retunes) diverge from report (%d, %d)",
			st.RePins, st.Retunes, rep.RePins, rep.Retunes)
	}
	if !sim.GA100().IsSupported(g.Selection().FreqMHz) {
		t.Fatalf("re-pinned governor left at unsupported clock %v", g.Selection().FreqMHz)
	}
}

// TestMemoFirstVisitsBitIdentical is the differential pin: over a stream
// where every phase is seen for the first time, the memoized governor and
// the plain streaming governor are byte-for-byte the same run — identical
// report, identical selection. The cache can only change behaviour on a
// revisit.
func TestMemoFirstVisitsBitIdentical(t *testing.T) {
	m := quickModels(t)
	const period = 4
	const total = 2 * period // one visit to each of the two phases

	plain, err := New(sim.New(sim.GA100(), 22), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := plain.Run(context.Background(), workloads.PhaseShifting(period, total))
	if err != nil {
		t.Fatal(err)
	}

	memo, err := New(sim.New(sim.GA100(), 22), m, memoConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := memo.Run(context.Background(), workloads.PhaseShifting(period, total))
	if err != nil {
		t.Fatal(err)
	}
	if gotRep != wantRep {
		t.Fatalf("first-visit run diverged:\nmemo  %+v\nplain %+v", gotRep, wantRep)
	}
	if memo.Selection() != plain.Selection() {
		t.Fatalf("selection %+v != plain %+v", memo.Selection(), plain.Selection())
	}
	if gotRep.RePins != 0 {
		t.Fatalf("re-pinned %d times with no revisits", gotRep.RePins)
	}
}

// TestPhaseCacheStale: with a staleness bound shorter than the revisit
// period, every revisit finds its entry decayed and re-profiles instead
// of re-pinning — the confidence bound turns memoization off for
// long-period returns while the counters still record the stale hits.
func TestPhaseCacheStale(t *testing.T) {
	m := quickModels(t)
	cfg := memoConfig()
	cfg.PhaseStaleAfter = 1 // any revisit is at least a period away
	g, err := New(sim.New(sim.GA100(), 23), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), workloads.PhaseShifting(4, 24))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RePins != 0 {
		t.Fatalf("stale entries re-pinned: %+v", rep)
	}
	pc := g.PhaseCache()
	if pc.StaleHits < 1 {
		t.Fatalf("no stale hits recorded: %+v", pc)
	}
	if rep.Retunes < 2 {
		t.Fatalf("stale cache suppressed retuning entirely: %+v", rep)
	}
}

// TestPhaseCacheEviction: a cache bounded below the alphabet size must
// evict — and keep working — as a 3-phase cycle rotates through it.
func TestPhaseCacheEviction(t *testing.T) {
	m := quickModels(t)
	cfg := memoConfig()
	cfg.PhaseCacheSize = 1
	g, err := New(sim.New(sim.GA100(), 24), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := workloads.ByName("NW")
	if err != nil {
		t.Fatal(err)
	}
	cycle := workloads.PhaseCycle([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), nw}, 4, 24)
	if _, err := g.Run(context.Background(), cycle); err != nil {
		t.Fatal(err)
	}
	pc := g.PhaseCache()
	if pc.Phases > 1 {
		t.Fatalf("size-1 cache holds %d phases", pc.Phases)
	}
	if pc.Evictions < 1 {
		t.Fatalf("3-phase cycle through a size-1 cache never evicted: %+v", pc)
	}
}

// TestTriggerSourceCounters pins the retune-gating fix: each trigger
// source is counted independently, so when drift hysteresis and a
// detector shift demand the same retune, both ledgers advance — and the
// invariants max(drift, shift) ≤ retunes ≤ drift+shift always hold.
func TestTriggerSourceCounters(t *testing.T) {
	// Unit level: both sources pending on one commit credit both.
	g := &Governor{}
	var rep RunReport
	g.pendingDrift, g.pendingShift = true, true
	g.commitTriggers(&rep)
	if rep.DriftRetunes != 1 || rep.ShiftRetunes != 1 {
		t.Fatalf("coincident triggers miscounted: %+v", rep)
	}
	if g.pendingDrift || g.pendingShift {
		t.Fatal("commitTriggers left pending flags set")
	}

	// Stream level: on the alternating stream the detector is the trigger
	// of record, and the invariants tie the ledgers together.
	m := quickModels(t)
	loop, err := New(sim.New(sim.GA100(), 25), m, memoConfig())
	if err != nil {
		t.Fatal(err)
	}
	srep, err := loop.Run(context.Background(), workloads.PhaseShifting(4, 24))
	if err != nil {
		t.Fatal(err)
	}
	if srep.ShiftRetunes < 1 {
		t.Fatalf("detector-triggered stream recorded no shift retunes: %+v", srep)
	}
	hi := srep.DriftRetunes
	if srep.ShiftRetunes > hi {
		hi = srep.ShiftRetunes
	}
	if srep.Retunes < hi || srep.Retunes > srep.DriftRetunes+srep.ShiftRetunes {
		t.Fatalf("trigger ledgers inconsistent: %+v", srep)
	}
	if st := loop.Stats(); st.DriftRetunes != srep.DriftRetunes || st.ShiftRetunes != srep.ShiftRetunes {
		t.Fatalf("stats trigger ledgers diverge from report: %+v vs %+v", st, srep)
	}
}

// TestPhaseCacheMetrics wires the new counters through a revisiting
// stream and checks them against the cache's own ledger.
func TestPhaseCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := memoConfig()
	cfg.Metrics = NewMetrics(reg)
	g, err := New(sim.New(sim.GA100(), 26), quickModels(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), workloads.PhaseShifting(4, 24))
	if err != nil {
		t.Fatal(err)
	}
	pc := g.PhaseCache()
	if got := int(cfg.Metrics.PhaseHits.Value()); got != pc.Hits {
		t.Fatalf("hit counter %d, cache %d", got, pc.Hits)
	}
	if got := int(cfg.Metrics.PhaseMisses.Value()); got != pc.Misses {
		t.Fatalf("miss counter %d, cache %d", got, pc.Misses)
	}
	if got := int(cfg.Metrics.RePins.Value()); got != rep.RePins {
		t.Fatalf("re-pin counter %d, report %d", got, rep.RePins)
	}
	if got := int(cfg.Metrics.ShiftRetunes.Value()); got != rep.ShiftRetunes {
		t.Fatalf("shift-retune counter %d, report %d", got, rep.ShiftRetunes)
	}
	if got := int(cfg.Metrics.Retunes.Value()); got != rep.Retunes {
		t.Fatalf("retune counter %d, report %d (re-pins must count as retunes)", got, rep.Retunes)
	}
}

// TestPhaseCacheConfigValidation rejects the nonsensical corners.
func TestPhaseCacheConfigValidation(t *testing.T) {
	m := quickModels(t)
	dev := sim.New(sim.GA100(), 27)
	for _, cfg := range []Config{
		{Objective: DefaultConfig().Objective, PhaseCacheSize: -1},
		{Objective: DefaultConfig().Objective, PhaseQuantum: -0.1},
		{Objective: DefaultConfig().Objective, PhaseStaleAfter: -1},
	} {
		if _, err := New(dev, m, cfg); err == nil {
			t.Fatalf("Config %+v accepted", cfg)
		}
	}
}

// TestTryRePinRoundTrip: the exported fast path re-pins a memoized phase
// from its representative features and reports honestly when the cache is
// cold or disabled.
func TestTryRePinRoundTrip(t *testing.T) {
	m := quickModels(t)
	g, err := New(sim.New(sim.GA100(), 28), m, memoConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Untuned cache is empty: no re-pin.
	if _, ok, err := g.TryRePin(0.5, 0.5); ok || err != nil {
		t.Fatalf("cold cache re-pinned (ok=%v err=%v)", ok, err)
	}
	if _, err := g.Run(context.Background(), workloads.PhaseShifting(4, 8)); err != nil {
		t.Fatal(err)
	}
	phases := g.Phases()
	if len(phases) == 0 {
		t.Fatal("no memoized phases after a tuned run")
	}
	sel, ok, err := g.TryRePin(phases[0][0], phases[0][1])
	if err != nil || !ok {
		t.Fatalf("representative features missed their own entry (ok=%v err=%v)", ok, err)
	}
	if sel != g.Selection() {
		t.Fatalf("re-pin returned %+v but installed %+v", sel, g.Selection())
	}

	// Disabled cache: never re-pins.
	off, err := New(sim.New(sim.GA100(), 28), m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := off.TryRePin(phases[0][0], phases[0][1]); ok {
		t.Fatal("disabled cache re-pinned")
	}
	if off.Phases() != nil || off.PhaseCache() != (PhaseCacheStats{}) {
		t.Fatal("disabled cache reports state")
	}
}

// FuzzPhaseFingerprint checks the fingerprint's aliasing contract over
// arbitrary feature pairs, mirroring FuzzPlanKeyQuantizer: phases whose
// features differ by more than a quantum never share a fingerprint, a ±1
// ulp perturbation moves each bucket index by at most one, and the
// fingerprint is deterministic.
func FuzzPhaseFingerprint(f *testing.F) {
	f.Add(0.8, 0.1, 0.2, 0.7)
	f.Add(0.0, 0.0, 0.1, 0.1)
	f.Add(0.30000000001, 0.5, 0.29999999999, 0.5)
	f.Add(0.95, 0.95, 0.95, 0.95)
	f.Fuzz(func(t *testing.T, fp1, dr1, fp2, dr2 float64) {
		const q = 0.1
		for _, v := range []float64{fp1, dr1, fp2, dr2} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		pc := newPhaseCache(8, q, 0)
		k1 := string(pc.fingerprint(fp1, dr1))
		k2 := string(pc.fingerprint(fp2, dr2))
		if k1 != string(pc.fingerprint(fp1, dr1)) {
			t.Fatal("fingerprint not deterministic")
		}
		// No-alias: a gap beyond the quantum in either feature separates
		// the fingerprints.
		if (math.Abs(fp1-fp2) > q*(1+1e-8) || math.Abs(dr1-dr2) > q*(1+1e-8)) && k1 == k2 {
			t.Fatalf("distinct phases (%v,%v) and (%v,%v) alias to %q", fp1, dr1, fp2, dr2, k1)
		}
		// Equal features always alias (determinism already shows this);
		// hashes must agree with key equality through core.KeyHash.
		if (k1 == k2) != (core.KeyHash([]byte(k1)) == core.KeyHash([]byte(k2))) && k1 != k2 {
			// Distinct keys may collide in the hash — the cache resolves
			// that by byte comparison — but equal keys must hash equal.
			t.Fatalf("equal fingerprints hash unequal: %q %q", k1, k2)
		}
		// Ulp-stability: a one-ulp nudge shifts each bucket by at most one.
		b := core.Quantize(fp1, q)
		if up := core.Quantize(math.Nextafter(fp1, math.Inf(1)), q); up != b && up != b+1 {
			t.Fatalf("+1 ulp moved bucket %d to %d", b, up)
		}
		if down := core.Quantize(math.Nextafter(fp1, math.Inf(-1)), q); down != b && down != b-1 {
			t.Fatalf("-1 ulp moved bucket %d to %d", b, down)
		}
	})
}

// TestRePinPathNoProfilingSymbols is the staticcheck-style guard on the
// fast path: phasecache.go — the whole re-pin implementation — must not
// reference any profiling or sweeping symbol. A re-pin that could reach a
// profiling run defeats the entire point of memoization, so the
// dependency is banned at the AST level, not just by review.
func TestRePinPathNoProfilingSymbols(t *testing.T) {
	banned := map[string]bool{
		"profileAtMax":       true,
		"tuneFrom":           true,
		"tuneStep":           true,
		"Tune":               true,
		"ProfileAtMax":       true,
		"NewCollector":       true,
		"CollectWorkload":    true,
		"CollectAll":         true,
		"PredictProfileInto": true,
		"OnlinePredict":      true,
		"Sweeper":            true,
		"sweeper":            true,
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "phasecache.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !banned[id.Name] {
			return true
		}
		pos := fset.Position(id.Pos())
		t.Errorf("re-pin fast path references profiling symbol %q at %s:%d",
			id.Name, pos.Filename, pos.Line)
		return true
	})
}

// TestPhaseFingerprintSentinels: pathological features collapse to
// sentinel buckets instead of corrupting the key.
func TestPhaseFingerprintSentinels(t *testing.T) {
	pc := newPhaseCache(2, 0.1, 0)
	nan := string(pc.fingerprint(math.NaN(), 0.5))
	if !strings.Contains(nan, ",") {
		t.Fatalf("malformed fingerprint %q", nan)
	}
	inf := string(pc.fingerprint(math.Inf(1), math.Inf(-1)))
	if nan == inf {
		t.Fatalf("distinct pathological phases alias: %q", nan)
	}
}
