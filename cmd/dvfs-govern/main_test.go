package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/backend/open"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/workloads"
)

func baseConfig() config {
	return config{
		device:      open.Config{Backend: "sim", Arch: "GA100", Seed: 11},
		seed:        11,
		objective:   "edp",
		threshold:   -1,
		scenario:    "phase-shift",
		runs:        16,
		period:      4,
		phaseWindow: 8,
		retuneCd:    1,
		phaseCache:  8,
	}
}

// TestGovernPhaseShift is the acceptance check: on a phase-shifting
// stream the streaming governor re-tunes mid-run and lands below the
// one-shot tune on energy at a bounded performance loss, with the whole
// comparison recorded in the JSON report.
func TestGovernPhaseShift(t *testing.T) {
	cfg := baseConfig()
	cfg.out = filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}

	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	arms := map[string]armResult{}
	for _, a := range rep.Arms {
		arms[a.Policy] = a
	}
	for _, p := range []string{"always-max", "one-shot", "phased-static", "streaming"} {
		a, ok := arms[p]
		if !ok {
			t.Fatalf("missing arm %q in %s", p, raw)
		}
		if a.Runs != cfg.runs || a.EnergyJoules <= 0 || a.TimeSeconds <= 0 {
			t.Fatalf("arm %q ledger: %+v", p, a)
		}
	}
	str, one := arms["streaming"], arms["one-shot"]
	if str.Retunes < 1 {
		t.Fatalf("streaming arm never retuned: %+v", str)
	}
	if one.Retunes != 0 {
		t.Fatalf("one-shot arm retuned: %+v", one)
	}
	if str.EnergyJoules >= one.EnergyJoules {
		t.Fatalf("streaming %.1f J not below one-shot %.1f J", str.EnergyJoules, one.EnergyJoules)
	}
	if loss := rep.StreamingPerfLossVsOneShot; loss > 0.10 {
		t.Fatalf("streaming perf loss %.3f exceeds 10%%", loss)
	}
	if rep.StreamingEnergyVsOneShot >= 1 || rep.StreamingEnergyVsAlwaysMax >= 1 {
		t.Fatalf("headline ratios not a win: %+v", rep)
	}

	memo, ok := arms["streaming+memo"]
	if !ok {
		t.Fatalf("missing streaming+memo arm in %s", raw)
	}
	if memo.RePins < 1 {
		t.Fatalf("memo arm never re-pinned: %+v", memo)
	}
	if memo.TunedRuns >= str.TunedRuns {
		t.Fatalf("memo arm profiled %d runs, streaming only %d", memo.TunedRuns, str.TunedRuns)
	}
	if rep.MemoReprofilesAfterFirst != 0 {
		t.Fatalf("memo arm re-profiled %d recognized phases", rep.MemoReprofilesAfterFirst)
	}
	if rep.MemoRePinAllocsPerOp != 0 {
		t.Fatalf("re-pin path allocates %g/op", rep.MemoRePinAllocsPerOp)
	}
	if rep.MemoEnergyVsStreaming > 1 {
		t.Fatalf("memo arm energy %.3fx streaming", rep.MemoEnergyVsStreaming)
	}
	if rep.MemoTimeVsStreaming > 1.005 {
		t.Fatalf("memo arm time %.3fx streaming exceeds +0.5%%", rep.MemoTimeVsStreaming)
	}
}

// TestGovernPhaseCycle drives the three-phase rotation: the memoized arm
// must hold one cache entry per phase and re-pin on every revisit.
func TestGovernPhaseCycle(t *testing.T) {
	cfg := baseConfig()
	cfg.scenario = "phase-cycle"
	cfg.runs = 24
	cfg.period = 2
	cfg.out = filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Arms {
		if a.Policy == "streaming+memo" {
			if a.RePins < 1 {
				t.Fatalf("no re-pins on the cycle: %+v", a)
			}
			return
		}
	}
	t.Fatalf("missing streaming+memo arm in %s", raw)
}

// TestGovernMemoDisabled pins the opt-out: -phase-cache 0 drops the
// fifth arm entirely and leaves the memo headline fields zeroed.
func TestGovernMemoDisabled(t *testing.T) {
	cfg := baseConfig()
	cfg.phaseCache = 0
	cfg.out = filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "streaming+memo") {
		t.Fatalf("memo arm present with cache disabled:\n%s", buf.String())
	}
	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 4 || rep.MemoRePins != 0 || rep.MemoEnergyVsStreaming != 0 {
		t.Fatalf("disabled memo leaked into report: %+v", rep)
	}
}

func TestGovernMultiTenant(t *testing.T) {
	cfg := baseConfig()
	cfg.scenario = "multi-tenant"
	cfg.runs = 12
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "streaming") {
		t.Fatalf("no streaming arm in output:\n%s", buf.String())
	}
}

// TestGovernReplayBackend drives the whole policy comparison over a
// recorded trace: a full-sweep sim campaign is written to CSV, replayed,
// and governed — the governed clocks must resolve against recorded runs.
func TestGovernReplayBackend(t *testing.T) {
	dev := sim.New(sim.GA100(), 4)
	coll := dcgm.NewCollector(dev, dcgm.Config{Runs: 2, MaxSamplesPerRun: 12, Seed: 5})
	var recorded []dcgm.Run
	for _, k := range []sim.KernelProfile{workloads.DGEMM(), workloads.STREAM()} {
		runs, err := coll.CollectWorkload(k)
		if err != nil {
			t.Fatal(err)
		}
		recorded = append(recorded, runs...)
	}
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := backend.WriteRunsFile(trace, recorded); err != nil {
		t.Fatal(err)
	}

	cfg := baseConfig()
	cfg.device = open.Config{Backend: "replay", Arch: "GA100", Seed: 11, Trace: trace}
	cfg.runs = 8
	cfg.period = 2
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "replay/GA100") {
		t.Fatalf("replay backend not reported:\n%s", buf.String())
	}
}

func TestGovernRejectsBadFlags(t *testing.T) {
	for _, mutate := range []func(*config){
		func(c *config) { c.runs = 1 },
		func(c *config) { c.period = 0 },
		func(c *config) { c.scenario = "nope" },
		func(c *config) { c.fuseStatic = 1.0 },
		func(c *config) { c.objective = "nope" },
		func(c *config) { c.phaseCache = -1 },
		func(c *config) { c.phaseStale = -1 },
	} {
		cfg := baseConfig()
		mutate(&cfg)
		if err := run(cfg, &bytes.Buffer{}); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
