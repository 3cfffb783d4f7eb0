package replay

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

// record collects a small sim campaign to use as a trace.
func record(t testing.TB, seed int64, cfg dcgm.Config) []backend.Run {
	t.Helper()
	coll := dcgm.NewCollector(sim.New(sim.GA100(), seed), cfg)
	runs, err := coll.CollectAll(backend.Workloads([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM()}))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestReplayServesRecordedRuns(t *testing.T) {
	runs := record(t, 1, dcgm.Config{Freqs: []float64{900, 1410}, Runs: 2, MaxSamplesPerRun: 4, Seed: 2})
	dev, err := New(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Kind() != "replay" {
		t.Fatalf("Kind = %q", dev.Kind())
	}
	if dev.Arch().Name != "GA100" {
		t.Fatalf("arch = %q", dev.Arch().Name)
	}
	if got := dev.Workloads(); !reflect.DeepEqual(got, []string{"DGEMM", "STREAM"}) {
		t.Fatalf("workloads = %v", got)
	}
	if got := dev.Freqs("DGEMM"); !reflect.DeepEqual(got, []float64{900, 1410}) {
		t.Fatalf("freqs = %v", got)
	}

	// Serving (workload, clock, runIndex) must return the recorded run
	// verbatim, for every recorded coordinate.
	smp := dev.NewSampler(backend.SampleConfig{})
	for _, want := range runs {
		if err := dev.SetClock(want.FreqMHz); err != nil {
			t.Fatal(err)
		}
		got, err := smp.Profile(backend.Named(want.Workload), want.RunIndex)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("served run differs at %s@%v run %d:\ngot  %+v\nwant %+v",
				want.Workload, want.FreqMHz, want.RunIndex, got, want)
		}
	}

	// Out-of-range indices wrap: a 2-run recording serves index 5 as 5%2.
	dev.ResetClock()
	if dev.Clock() != dev.Arch().MaxFreqMHz {
		t.Fatalf("clock after reset = %v", dev.Clock())
	}
	wrapped, err := smp.Profile(backend.Named("DGEMM"), 5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := smp.Profile(backend.Named("DGEMM"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wrapped, base) {
		t.Fatal("run index 5 did not wrap to index 1 on a 2-run trace")
	}
}

func TestReplayErrors(t *testing.T) {
	runs := record(t, 3, dcgm.Config{Freqs: []float64{1410}, Runs: 1, MaxSamplesPerRun: 3, Seed: 4})

	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := New(runs, Options{TimeCompression: -1}); err == nil {
		t.Fatal("negative time compression accepted")
	}
	mixed := append(append([]backend.Run(nil), runs...), backend.Run{
		Workload: "X", Arch: "GV100", FreqMHz: 1380, ExecTimeSec: 1,
		Samples: []backend.Sample{{PowerUsage: 100}},
	})
	if _, err := New(mixed, Options{}); err == nil {
		t.Fatal("mixed-arch trace accepted")
	}
	empty := []backend.Run{{Workload: "X", Arch: "GA100", FreqMHz: 1410, ExecTimeSec: 1}}
	if _, err := New(empty, Options{}); err == nil {
		t.Fatal("sample-less run accepted")
	}
	unknown := []backend.Run{{Workload: "X", Arch: "H100", FreqMHz: 1410, ExecTimeSec: 1,
		Samples: []backend.Sample{{PowerUsage: 100}}}}
	if _, err := New(unknown, Options{}); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.csv"), Options{}); err == nil {
		t.Fatal("missing trace file accepted")
	}

	dev, err := New(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetClock(123); err == nil {
		t.Fatal("unsupported clock accepted")
	}
	smp := dev.NewSampler(backend.SampleConfig{})
	if _, err := smp.Profile(backend.Named("DGEMM"), -1); err == nil {
		t.Fatal("negative run index accepted")
	}
	if _, err := smp.Profile(backend.Named("NOPE"), 0); err == nil {
		t.Fatal("unrecorded workload accepted")
	}
	if err := dev.SetClock(900); err != nil { // supported clock, but not in the trace
		t.Fatal(err)
	}
	if _, err := smp.Profile(backend.Named("DGEMM"), 0); err == nil {
		t.Fatal("unrecorded frequency accepted")
	}
	scaled := dev.NewSampler(backend.SampleConfig{InputScale: 2})
	if _, err := scaled.Profile(backend.Named("DGEMM"), 0); err == nil {
		t.Fatal("input scaling accepted")
	}
}

func TestForkSharesTraceIndependentClocks(t *testing.T) {
	runs := record(t, 5, dcgm.Config{Freqs: []float64{900, 1410}, Runs: 1, MaxSamplesPerRun: 3, Seed: 6})
	root, err := New(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.SetClock(900); err != nil {
		t.Fatal(err)
	}
	fork := root.Fork(99)
	if fork.Clock() != root.Arch().MaxFreqMHz {
		t.Fatalf("fork clock = %v, want the default %v", fork.Clock(), root.Arch().MaxFreqMHz)
	}
	if root.Clock() != 900 {
		t.Fatal("forking disturbed the root clock")
	}
	got, err := fork.NewSampler(backend.SampleConfig{}).Profile(backend.Named("DGEMM"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.NewSampler(backend.SampleConfig{}).Profile(backend.Named("DGEMM"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("fork serves different data than a fresh device over the same trace")
	}
}

// TestTimeCompressionPacesWithoutChangingValues pins the contract that
// pacing is wall-clock only: a compressed replay sleeps but serves exactly
// the bytes an instant replay serves.
func TestTimeCompressionPacesWithoutChangingValues(t *testing.T) {
	runs := record(t, 7, dcgm.Config{Freqs: []float64{1410}, Runs: 1, MaxSamplesPerRun: 3, Seed: 8})
	instant, err := New(runs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compress hard enough that the sleep stays in the microseconds.
	paced, err := New(runs, Options{TimeCompression: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	a, err := instant.NewSampler(backend.SampleConfig{}).Profile(backend.Named("STREAM"), 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b, err := paced.NewSampler(backend.SampleConfig{}).Profile(backend.Named("STREAM"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("compressed replay slept %v for a %v s run", elapsed, a.ExecTimeSec)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("time compression changed served values")
	}
}

// trainTinyModels trains deliberately small models on a reduced campaign —
// enough for the serving path to be exercised end to end.
func trainTinyModels(t testing.TB) *core.Models {
	t.Helper()
	dev := sim.New(sim.GA100(), 71)
	coll := dcgm.NewCollector(dev, dcgm.Config{
		Freqs:            sim.GA100().DesignClocks(),
		Runs:             1,
		MaxSamplesPerRun: 3,
		Seed:             72,
	})
	runs, err := coll.CollectAll(backend.Workloads([]sim.KernelProfile{workloads.DGEMM(), workloads.STREAM()}))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Build(sim.GA100().Spec(), runs, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sds, err := dataset.Build(sim.GA100().Spec(), runs, dataset.Options{PerSample: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.TrainSplit(sds, ds, core.TrainOptions{PowerEpochs: 25, TimeEpochs: 10, Hidden: []int{16, 16}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrossBackendDifferential is the backend abstraction's acceptance
// test: record a live sim profiling run to CSV, replay it, and require the
// whole online phase — predicted profiles, the selected frequency, and the
// plan-cache bucket — to be byte-identical across the two backends.
func TestCrossBackendDifferential(t *testing.T) {
	arch := sim.GA100()
	m := trainTinyModels(t)
	app := workloads.LAMMPS()

	live, err := core.OnlinePredict(sim.New(arch, 7), m, app, dcgm.Config{Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Record the campaign the way dvfs-collect would, then replay it. The
	// replay seed and sampling config are deliberately different from the
	// live run's: a recording must not care.
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := backend.WriteRunsFile(path, []backend.Run{live.ProfileRun}); err != nil {
		t.Fatal(err)
	}
	rdev, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.OnlinePredict(rdev, m, app, dcgm.Config{Seed: 999, MaxSamplesPerRun: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Workload != live.Workload {
		t.Fatalf("workload %q != %q", rep.Workload, live.Workload)
	}
	if !reflect.DeepEqual(rep.ProfileRun.Samples, live.ProfileRun.Samples) {
		t.Fatal("replayed profiling samples differ from the recorded ones")
	}
	if rep.ProfileRun.ExecTimeSec != live.ProfileRun.ExecTimeSec {
		t.Fatalf("exec time %v != %v", rep.ProfileRun.ExecTimeSec, live.ProfileRun.ExecTimeSec)
	}
	if !reflect.DeepEqual(rep.Predicted, live.Predicted) {
		t.Fatal("predicted profiles differ between sim and replay backends")
	}
	if rep.Clamped != live.Clamped {
		t.Fatalf("clamp counts differ: %d != %d", rep.Clamped, live.Clamped)
	}

	for _, obj := range []objective.Objective{objective.EDP{}, objective.ED2P{}} {
		a, err := core.SelectFrequency(live.Predicted, obj, -1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.SelectFrequency(rep.Predicted, obj, -1)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s selection differs: %+v != %+v", obj.Name(), a, b)
		}
	}

	// Plan-cache key identity: the replayed run must land in the bucket
	// the live run created, proving the cache key is backend-invariant.
	sw, err := m.NewSweeper(arch.Spec(), arch.DesignClocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.NewPlanCache(sw, core.PlanCacheConfig{Objective: objective.ED2P{}, Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	selLive, _, hit, err := cache.Select(context.Background(), live.ProfileRun)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first selection reported a cache hit")
	}
	selRep, _, hit, err := cache.Select(context.Background(), rep.ProfileRun)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("replayed run missed the live run's plan-cache bucket: keys are not backend-invariant")
	}
	if selLive != selRep {
		t.Fatalf("cached selection differs: %+v != %+v", selLive, selRep)
	}
}

// FuzzReplayRoundTrip checks the recording codec and the replay path on
// arbitrary telemetry: once normalized by a read, a trace must re-encode
// byte-identically forever, and a replay device over it must serve the
// decoded runs verbatim.
func FuzzReplayRoundTrip(f *testing.F) {
	f.Add("DGEMM", int64(0), 2.5, 300.0, 250.0, 1)
	f.Add("a,b\nc", int64(3), 0.001, 1e-9, 400.5, 7)
	f.Add("", int64(-1), math.Inf(1), math.NaN(), -5.0, 0)
	f.Fuzz(func(t *testing.T, name string, clockPick int64, execTime, p1, p2 float64, runIdx int) {
		// CSV cannot round-trip a bare \r inside a quoted field (readers
		// normalize \r\n to \n), so the recorder's contract excludes it.
		name = strings.ReplaceAll(name, "\r", "")
		clocks := backend.GA100().DesignClocks()
		freq := clocks[int(uint64(clockPick)%uint64(len(clocks)))]
		runs := []backend.Run{{
			Workload:    name,
			Arch:        "GA100",
			FreqMHz:     freq,
			RunIndex:    runIdx,
			ExecTimeSec: execTime,
			Samples: []backend.Sample{
				{TimeSec: 0, PowerUsage: p1, SMActive: p2, FP64Active: p1 * p2},
				{TimeSec: 0.02, PowerUsage: p2, DRAMActive: p1},
			},
		}}

		var first bytes.Buffer
		if err := backend.WriteRuns(&first, runs); err != nil {
			t.Fatal(err)
		}
		decoded, err := backend.ReadRuns(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := backend.WriteRuns(&second, decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not byte-identical:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
		}

		dev, err := New(decoded, Options{})
		if err != nil {
			t.Skip() // e.g. non-positive values the device layer rejects
		}
		if runIdx < 0 {
			return
		}
		if err := dev.SetClock(freq); err != nil {
			t.Fatal(err)
		}
		got, err := dev.NewSampler(backend.SampleConfig{}).Profile(backend.Named(name), runIdx)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := backend.WriteRuns(&out, []backend.Run{got}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), first.Bytes()) {
			t.Fatalf("replay served different bytes than were recorded:\n--- served ---\n%s--- recorded ---\n%s", out.Bytes(), first.Bytes())
		}
	})
}

// BenchmarkReplayProfile measures the per-run overhead of serving recorded
// telemetry — the replay backend's whole job, so it must stay trivially
// cheap next to the live simulator.
func BenchmarkReplayProfile(b *testing.B) {
	runs := record(b, 9, dcgm.Config{Freqs: []float64{1410}, Runs: 1, Seed: 10})
	dev, err := New(runs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	smp := dev.NewSampler(backend.SampleConfig{})
	w := backend.Named("DGEMM")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smp.Profile(w, i); err != nil {
			b.Fatal(err)
		}
	}
}
