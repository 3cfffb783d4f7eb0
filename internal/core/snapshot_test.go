package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
)

// failSweep is a SweepFunc that fails the test if the miss path ever
// runs — the warm-start contract is that restored entries never invoke
// the sweeper.
func failSweep(t *testing.T) SweepFunc {
	return func(context.Context, []objective.Profile, dcgm.Run) (Clamps, error) {
		t.Error("sweeper invoked on a warm-started cache")
		return Clamps{}, errors.New("sweeper invoked on a warm-started cache")
	}
}

func snapshotRuns() []dcgm.Run {
	runs := make([]dcgm.Run, 12)
	for i := range runs {
		runs[i] = syntheticRun(0.05+0.15*float64(i%4), 0.1+0.2*float64(i/4))
	}
	return runs
}

// TestSnapshotWarmStartServesHitsWithoutSweeper is the restart scenario:
// a warm cache snapshots, a cold replacement loads the snapshot, and a
// replay of the previously-seen workload set is 100% hits with identical
// selections — the sweeper (wired to fail the test) is never touched.
func TestSnapshotWarmStartServesHitsWithoutSweeper(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 4}
	warm := planCacheFor(t, m, cfg)
	runs := snapshotRuns()
	want := make([]Selection, len(runs))
	for i, r := range runs {
		sel, _, _, err := warm.Select(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sel
	}

	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	coldCfg := cfg
	coldCfg.Sweep = failSweep(t)
	cold := planCacheFor(t, m, coldCfg)
	n, err := cold.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(runs) {
		t.Fatalf("loaded %d entries, want %d", n, len(runs))
	}
	if cold.Len() != warm.Len() {
		t.Fatalf("warm-started Len = %d, want %d", cold.Len(), warm.Len())
	}
	for i, r := range runs {
		sel, _, hit, err := cold.Select(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("run %d missed on the warm-started cache", i)
		}
		if !selectionsIdentical(want[i], sel) {
			t.Fatalf("run %d selection diverged after warm start: %+v vs %+v", i, want[i], sel)
		}
	}
	if s := cold.Stats(); s.Misses != 0 {
		t.Fatalf("warm-started cache recorded %d misses", s.Misses)
	}
}

// TestSnapshotPreservesLRUOrder pins that recency survives the
// round-trip: the entry that was least recent before the snapshot is the
// one evicted first after it.
func TestSnapshotPreservesLRUOrder(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Capacity: 2, Shards: 1}
	warm := planCacheFor(t, m, cfg)
	oldRun := syntheticRun(0.15, 0.20)
	hotRun := syntheticRun(0.45, 0.20)
	for _, r := range []dcgm.Run{oldRun, hotRun, hotRun} {
		if _, _, _, err := warm.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cold := planCacheFor(t, m, cfg)
	if _, err := cold.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A third bucket must evict oldRun (the LRU), not hotRun.
	if _, _, _, err := cold.Select(context.Background(), syntheticRun(0.75, 0.20)); err != nil {
		t.Fatal(err)
	}
	if _, _, hit, err := cold.Select(context.Background(), hotRun); err != nil || !hit {
		t.Fatalf("hot entry was evicted after warm start (hit=%v, err=%v)", hit, err)
	}
	if _, _, hit, err := cold.Select(context.Background(), oldRun); err != nil || hit {
		t.Fatalf("LRU entry survived past capacity after warm start (hit=%v, err=%v)", hit, err)
	}
}

func TestSnapshotEmptyCacheRoundTrip(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}
	var buf bytes.Buffer
	if err := planCacheFor(t, m, cfg).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cold := planCacheFor(t, m, cfg)
	n, err := cold.LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("empty snapshot refused: %v", err)
	}
	if n != 0 || cold.Len() != 0 {
		t.Fatalf("empty round-trip installed %d entries, Len %d", n, cold.Len())
	}
}

func TestSnapshotCorruptAndTruncatedRefused(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}
	warm := planCacheFor(t, m, cfg)
	for _, r := range snapshotRuns() {
		if _, _, _, err := warm.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not a snapshot at all")},
		{"empty file", nil},
		{"truncated half", full[:len(full)/2]},
		{"truncated tail", full[:len(full)-2]},
	}
	for _, tc := range cases {
		cold := planCacheFor(t, m, cfg)
		if _, err := cold.LoadSnapshot(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
		if cold.Len() != 0 {
			t.Errorf("%s: corrupt snapshot installed %d entries", tc.name, cold.Len())
		}
	}

	// Count/entries disagreement (a truncation landing between complete
	// JSON values) is refused too.
	tampered := bytes.Replace(full, []byte(`"count":12`), []byte(`"count":13`), 1)
	if bytes.Equal(tampered, full) {
		t.Fatal("tamper target not found in snapshot bytes")
	}
	if _, err := planCacheFor(t, m, cfg).LoadSnapshot(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("count mismatch not refused as truncation: %v", err)
	}
}

// TestSnapshotConfigChangeRefused pins the refusal matrix: a snapshot
// taken under one (quantum, shards, objective/threshold/mem-axis) must
// not warm a cache computing different keys or a different LRU layout.
func TestSnapshotConfigChangeRefused(t *testing.T) {
	m := serveModels(t)
	base := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Quantum: 0.1, Shards: 4}
	warm := planCacheFor(t, m, base)
	for _, r := range snapshotRuns() {
		if _, _, _, err := warm.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	arch := sim.GA100().Spec()
	gridSweeper, err := m.NewSweeper(arch, arch.DesignClocks(), arch.MemClocks())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		cache   func() (*PlanCache, error)
		errWant string
	}{
		{"different quantum", func() (*PlanCache, error) {
			cfg := base
			cfg.Quantum = 0.2
			return NewPlanCache(warm.sweeper, cfg)
		}, "quantum"},
		{"different shards", func() (*PlanCache, error) {
			cfg := base
			cfg.Shards = 8
			return NewPlanCache(warm.sweeper, cfg)
		}, "shards"},
		{"different threshold", func() (*PlanCache, error) {
			cfg := base
			cfg.Threshold = 0.05
			return NewPlanCache(warm.sweeper, cfg)
		}, "prefix"},
		{"different objective", func() (*PlanCache, error) {
			cfg := base
			cfg.Objective = objective.ED2P{}
			return NewPlanCache(warm.sweeper, cfg)
		}, "prefix"},
		{"memory axis added", func() (*PlanCache, error) {
			return NewPlanCache(gridSweeper, base)
		}, "prefix"},
	}
	for _, tc := range cases {
		pc, err := tc.cache()
		if err != nil {
			t.Fatalf("%s: building cache: %v", tc.name, err)
		}
		_, err = pc.LoadSnapshot(bytes.NewReader(snap))
		if err == nil {
			t.Errorf("%s: mismatched snapshot accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not name the mismatch (%q)", tc.name, err, tc.errWant)
		}
		if pc.Len() != 0 {
			t.Errorf("%s: refused snapshot still installed %d entries", tc.name, pc.Len())
		}
	}
}

func TestSnapshotDeriveCacheRefusesLoad(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}
	var buf bytes.Buffer
	if err := planCacheFor(t, m, cfg).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.Derive = func([]objective.Profile, Selection) any { return struct{}{} }
	pc := planCacheFor(t, m, cfg)
	if _, err := pc.LoadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "Derive") {
		t.Fatalf("Derive-configured cache accepted a snapshot (err %v)", err)
	}
}

// TestSnapshotVersionRefused pins forward-compatibility: an unknown
// version is refused, not guessed at.
func TestSnapshotVersionRefused(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}
	var buf bytes.Buffer
	if err := planCacheFor(t, m, cfg).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Replace(buf.Bytes(), []byte(`"version":1`), []byte(`"version":2`), 1)
	if _, err := planCacheFor(t, m, cfg).LoadSnapshot(bytes.NewReader(bumped)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown snapshot version accepted (err %v)", err)
	}
}

// TestSnapshotCapacityClip pins the downgrade path: loading a snapshot
// from a bigger cache keeps each shard's most-recent slice and skips the
// rest, rather than refusing or overfilling.
func TestSnapshotCapacityClip(t *testing.T) {
	m := serveModels(t)
	big := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 1, Capacity: 64})
	runs := snapshotRuns()
	for _, r := range runs {
		if _, _, _, err := big.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := big.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	small := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 1, Capacity: 3})
	n, err := small.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || small.Len() != 3 {
		t.Fatalf("clip loaded %d entries, Len %d, want 3", n, small.Len())
	}
	// The kept slice is the MRU end: the last-touched runs hit.
	if _, _, hit, err := small.Select(context.Background(), runs[len(runs)-1]); err != nil || !hit {
		t.Fatalf("MRU entry not kept by capacity clip (hit=%v, err=%v)", hit, err)
	}
}

func TestSaveSnapshotFileAtomicAndReloadable(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}
	warm := planCacheFor(t, m, cfg)
	runs := snapshotRuns()
	for _, r := range runs {
		if _, _, _, err := warm.Select(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "plancache.snapshot")
	// Two saves in a row: the second replaces the first via rename, and
	// no temp files are left behind either time.
	for i := 0; i < 2; i++ {
		if err := warm.SaveSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "plancache.snapshot" {
		t.Fatalf("snapshot dir not clean after save: %v", names)
	}

	cfgCold := cfg
	cfgCold.Sweep = failSweep(t)
	cold := planCacheFor(t, m, cfgCold)
	n, err := cold.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(runs) {
		t.Fatalf("reloaded %d entries, want %d", n, len(runs))
	}
	for _, r := range runs {
		if _, _, hit, err := cold.Select(context.Background(), r); err != nil || !hit {
			t.Fatalf("file round-trip lost an entry (hit=%v, err=%v)", hit, err)
		}
	}
}

func TestLoadSnapshotFileMissingIsColdStart(t *testing.T) {
	m := serveModels(t)
	pc := planCacheFor(t, m, PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1})
	n, err := pc.LoadSnapshotFile(filepath.Join(t.TempDir(), "never-written"))
	if err != nil || n != 0 {
		t.Fatalf("missing snapshot file: (%d, %v), want (0, nil)", n, err)
	}
}

func TestKeyHashMatchesShardStripe(t *testing.T) {
	// KeyHash is exported for the router ring; pin it to the FNV-1a
	// constants so the ring and the shard stripes can never drift apart.
	if got := KeyHash(nil); got != 14695981039346656037 {
		t.Fatalf("KeyHash(nil) = %d, want the FNV-1a offset basis", got)
	}
	if got, want := KeyHash([]byte("a")), uint64(0xaf63dc4c8601ec8c); got != want {
		t.Fatalf("KeyHash(a) = %#x, want %#x", got, want)
	}
}

// warmSnapshot warms a cache over the GA100 design grid (memory axis
// mems, nil for core-only) with a few synthetic runs and returns the
// cache's sweeper and its snapshot bytes.
func warmSnapshot(m *Models, cfg PlanCacheConfig, mems []float64) (*Sweeper, []byte, error) {
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), mems)
	if err != nil {
		return nil, nil, err
	}
	warm, err := NewPlanCache(sw, cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range snapshotRuns()[:5] {
		if _, _, _, err := warm.Select(context.Background(), r); err != nil {
			return nil, nil, err
		}
	}
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		return nil, nil, err
	}
	return sw, buf.Bytes(), nil
}

// offGridEntries lists every installed entry the cache could not have
// computed: a key without the cache's prefix, a core clock outside the
// sweep, a memory clock outside the sweep's memory axis, or any memory
// clock on a core-only sweep.
func offGridEntries(c *PlanCache) []string {
	var bad []string
	freqs, mems := c.sweeper.Freqs(), c.sweeper.MemFreqs()
	for i := range c.shards {
		for key, e := range c.shards[i].entries {
			memOK := e.sel.MemFreqMHz == 0
			if mems != nil {
				memOK = slices.Contains(mems, e.sel.MemFreqMHz)
			}
			if !strings.HasPrefix(key, c.prefix) || !slices.Contains(freqs, e.sel.FreqMHz) || !memOK {
				bad = append(bad, fmt.Sprintf("%q → %+v", key, e.sel))
			}
		}
	}
	return bad
}

// TestSnapshotOffGridEntryRefused: a snapshot whose header matches the
// cache but whose last entry selects a clock off the design grid, or
// carries a foreign key, is refused whole. The cache stays empty and the
// tampered clock is never served.
func TestSnapshotOffGridEntryRefused(t *testing.T) {
	m := serveModels(t)
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1}
	arch := sim.GA100().Spec()
	for _, mems := range [][]float64{nil, arch.MemClocks()} {
		sw, raw, err := warmSnapshot(m, cfg, mems)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			edit func(*snapshotEntry)
		}{
			{"core clock off the grid", func(e *snapshotEntry) { e.Sel.FreqMHz = 12345 }},
			{"foreign key prefix", func(e *snapshotEntry) { e.Key = "GV100|" + e.Key }},
			{"memory clock off the axis", func(e *snapshotEntry) { e.Sel.MemFreqMHz = 999 }},
		}
		if mems != nil {
			cases = append(cases, struct {
				name string
				edit func(*snapshotEntry)
			}{"no memory clock on a grid sweep", func(e *snapshotEntry) { e.Sel.MemFreqMHz = 0 }})
		}
		for _, tc := range cases {
			var snap snapshotFile
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			tc.edit(&snap.Entries[len(snap.Entries)-1])
			tampered, err := json.Marshal(&snap)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewPlanCache(sw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cold.LoadSnapshot(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "entry 4") {
				t.Errorf("mems %v, %s: tampered snapshot not refused at its entry (err %v)", mems, tc.name, err)
			}
			if cold.Len() != 0 {
				t.Errorf("mems %v, %s: refused snapshot installed %d entries", mems, tc.name, cold.Len())
			}
		}
		// The untampered snapshot still loads in full.
		cold, err := NewPlanCache(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := cold.LoadSnapshot(bytes.NewReader(raw)); err != nil || n != 5 {
			t.Fatalf("mems %v: clean snapshot loaded %d entries (err %v)", mems, n, err)
		}
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot on core-only and
// grid caches already warmed from a real snapshot. It must never panic.
// A refused load must leave the cache unchanged (its snapshot bytes are
// identical before and after); an accepted one may only add entries on
// the cache's key prefix and design grid.
func FuzzLoadSnapshot(f *testing.F) {
	m, err := serveModelsErr()
	if err != nil {
		f.Fatal(err)
	}
	cfg := PlanCacheConfig{Objective: objective.EDP{}, Threshold: -1, Shards: 4}
	type target struct {
		sw   *Sweeper
		seed []byte
	}
	var targets []target
	for _, mems := range [][]float64{nil, sim.GA100().Spec().MemClocks()} {
		sw, raw, err := warmSnapshot(m, cfg, mems)
		if err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{sw, raw})
		f.Add(raw)
	}
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			pc, err := NewPlanCache(tg.sw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pc.LoadSnapshot(bytes.NewReader(tg.seed)); err != nil {
				t.Fatal(err)
			}
			var before bytes.Buffer
			if err := pc.Snapshot(&before); err != nil {
				t.Fatal(err)
			}
			n, err := pc.LoadSnapshot(bytes.NewReader(data))
			if err != nil {
				var after bytes.Buffer
				if err := pc.Snapshot(&after); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before.Bytes(), after.Bytes()) {
					t.Fatalf("refused load (%v) changed the cache", err)
				}
				continue
			}
			if bad := offGridEntries(pc); len(bad) > 0 {
				t.Fatalf("accepted load installed %d entries the cache could not compute: %v", n, bad)
			}
		}
	})
}
