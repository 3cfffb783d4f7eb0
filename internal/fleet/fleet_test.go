package fleet

import (
	"math"
	"math/rand"
	"testing"

	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
)

// fleetModels builds paper-shaped models with random (untrained) weights —
// the simulation's structure does not depend on training quality.
func fleetModels(tb testing.TB) *core.Models {
	tb.Helper()
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(3), 1)
	if err != nil {
		tb.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(3), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock"},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7}, Stds: []float64{0.2, 0.15, 0.25}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
}

func fleetSweeper(tb testing.TB) *core.Sweeper {
	tb.Helper()
	arch := sim.GA100().Spec()
	sw, err := fleetModels(tb).NewSweeper(arch, arch.DesignClocks(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return sw
}

// stableRate returns an arrival rate that loads a cluster at frac of its
// service capacity, estimated from the catalogue's predicted service
// times. The deadline rule bounds a job's service at slack × its
// predicted reference time, so sizing against that keeps the in-flight
// population — and every grow-only engine buffer — bounded, which is the
// precondition for the 0-allocs steady state. (An overloaded cluster's
// backlog grows without bound, and with it the job table.)
func stableRate(tb testing.TB, sw *core.Sweeper, runs []dcgm.Run, nodes, gpusPerNode, maxJobGPUs int, slack, frac float64) float64 {
	tb.Helper()
	meanT := 0.0
	for _, r := range runs {
		profs, _, err := sw.PredictProfile(r)
		if err != nil {
			tb.Fatal(err)
		}
		meanT += BuildCurve(profs, core.Selection{}).Ref().TimeSec
	}
	meanT /= float64(len(runs))
	meanGPUs := (1 + float64(maxJobGPUs)) / 2
	capacity := float64(nodes * gpusPerNode)
	return frac * capacity / (meanGPUs * slack * meanT)
}

// catalogueRuns builds n max-clock profiling runs whose quantized feature
// vectors never collide — n distinct workload characters.
func catalogueRuns(n int) []dcgm.Run {
	runs := make([]dcgm.Run, n)
	for i := range runs {
		runs[i] = dcgm.Run{
			Workload:    "wl",
			FreqMHz:     1410,
			ExecTimeSec: 1 + 0.01*float64(i%7),
			Samples: []dcgm.Sample{{
				FP32Active:    0.05 + 0.17*float64(i%257),
				DRAMActive:    0.10 + 0.19*float64(i/257),
				SMAppClockMHz: 1410,
			}},
		}
	}
	return runs
}

func TestEventHeapOrders(t *testing.T) {
	var h eventHeap
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	times := make([]float64, n)
	for i := range times {
		// Coarse times force plenty of exact ties, exercising the seq
		// tiebreak.
		times[i] = float64(rng.Intn(50))
	}
	for i, tm := range times {
		h.push(tm, evArrival, int32(i))
	}
	lastT, lastSeq := math.Inf(-1), uint64(0)
	for i := 0; i < n; i++ {
		ev := h.pop()
		if ev.t < lastT {
			t.Fatalf("pop %d went backwards in time: %v after %v", i, ev.t, lastT)
		}
		if ev.t == lastT && ev.seq < lastSeq {
			t.Fatalf("pop %d broke the seq tiebreak: seq %d after %d at t=%v", i, ev.seq, lastSeq, ev.t)
		}
		lastT, lastSeq = ev.t, ev.seq
	}
	if len(h.ev) != 0 {
		t.Fatalf("%d events left after draining", len(h.ev))
	}
}

func TestIntRingFIFO(t *testing.T) {
	var r intRing
	r.buf = make([]int32, 4)
	next := int32(0)
	want := int32(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.push(next)
			next++
		}
		if round%3 == 0 {
			continue // let it grow past the initial capacity
		}
		for r.len() > 2 {
			if got := r.pop(); got != want {
				t.Fatalf("pop = %d, want FIFO order %d", got, want)
			}
			want++
		}
	}
	for r.len() > 0 {
		if got := r.pop(); got != want {
			t.Fatalf("drain pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d values, pushed %d", want, next)
	}
}

// TestCurveChoose pins the deadline-feasibility rule on a hand-built
// curve: min-energy among feasible points, reference fallback when none
// fit.
func TestCurveChoose(t *testing.T) {
	profiles := []objective.Profile{
		{FreqMHz: 1410, TimeSec: 1.0, PowerWatts: 300}, // E=300, ref
		{FreqMHz: 1200, TimeSec: 1.2, PowerWatts: 200}, // E=240
		{FreqMHz: 900, TimeSec: 1.5, PowerWatts: 180},  // E=270
		{FreqMHz: 510, TimeSec: 2.5, PowerWatts: 90},   // E=225
	}
	c := BuildCurve(profiles, core.Selection{})

	cases := []struct {
		budget   float64
		wantFreq float64
		feasible bool
	}{
		{3.0, 510, true},  // everything fits: global min energy
		{2.0, 1200, true}, // 510 too slow; 1200 MHz is min-energy feasible
		{1.4, 1200, true},
		{1.1, 1410, true}, // only the max clock fits
		{0.5, 1410, false},
		{-1, 1410, false},
		{math.NaN(), 1410, false},
	}
	for _, tc := range cases {
		p, feasible := c.Choose(tc.budget)
		if p.FreqMHz != tc.wantFreq || feasible != tc.feasible {
			t.Fatalf("Choose(%v) = (%v MHz, %v), want (%v MHz, %v)", tc.budget, p.FreqMHz, feasible, tc.wantFreq, tc.feasible)
		}
	}
	if c.Ref().FreqMHz != 1410 {
		t.Fatalf("Ref = %v MHz, want the max clock", c.Ref().FreqMHz)
	}
}

// TestArrivalGenDeterministic pins that a generator's stream is a pure
// function of its seed, for every distribution.
func TestArrivalGenDeterministic(t *testing.T) {
	for _, dist := range []string{DistUniform, DistZipf, DistBursty} {
		stream := func() ([]float64, []int32) {
			g, err := newArrivalGen(dist, 10, 64, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			var ts []float64
			var ks []int32
			now := 0.0
			for i := 0; i < 500; i++ {
				tm, k := g.next(now)
				if tm <= now {
					t.Fatalf("%s: arrival %d does not advance time: %v -> %v", dist, i, now, tm)
				}
				if k < 0 || k >= 64 {
					t.Fatalf("%s: key %d out of range", dist, k)
				}
				ts = append(ts, tm)
				ks = append(ks, k)
				now = tm
			}
			return ts, ks
		}
		t1, k1 := stream()
		t2, k2 := stream()
		for i := range t1 {
			if t1[i] != t2[i] || k1[i] != k2[i] {
				t.Fatalf("%s: streams diverge at %d", dist, i)
			}
		}
	}
}

func TestArrivalGenRejectsUnknownDist(t *testing.T) {
	if _, err := newArrivalGen("pareto", 1, 8, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	sw := fleetSweeper(t)
	runs := catalogueRuns(4)
	bad := []Config{
		{},                          // no rate
		{Rate: 5},                   // neither MaxArrivals nor Duration
		{Rate: -1, MaxArrivals: 10}, // negative rate
		{Rate: 5, MaxArrivals: -1},  // negative bound
		{Rate: 5, Duration: -2},     // negative duration
		{Rate: 5, MaxArrivals: 10, Nodes: -3},
		{Rate: 5, MaxArrivals: 10, Dist: "pareto"},
		{Rate: 5, MaxArrivals: 10, Slack: -0.5},
	}
	for i, cfg := range bad {
		s, err := New(sw, runs, cfg)
		if err == nil {
			if _, rerr := s.Run(); rerr == nil {
				t.Fatalf("bad config %d accepted: %+v", i, cfg)
			}
		}
	}
	if _, err := New(sw, nil, Config{Rate: 5, MaxArrivals: 10}); err == nil {
		t.Fatal("empty catalogue accepted")
	}
	if _, err := New(nil, runs, Config{Rate: 5, MaxArrivals: 10}); err == nil {
		t.Fatal("nil sweeper accepted")
	}
	if _, err := New(sw, []dcgm.Run{{FreqMHz: 900}}, Config{Rate: 5, MaxArrivals: 10}); err == nil {
		t.Fatal("invalid catalogue run accepted")
	}
}

// TestSimulateConserves checks the bookkeeping identities every run must
// satisfy: the stream ends, every arrival departs, energy accounting is
// positive, and the always-max baseline dominates the planned energy.
func TestSimulateConserves(t *testing.T) {
	sw := fleetSweeper(t)
	s, err := New(sw, catalogueRuns(32), Config{
		Nodes: 16, GPUsPerNode: 4, Rate: 40, Dist: DistZipf,
		MaxArrivals: 3000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrivals != 3000 {
		t.Fatalf("Arrivals = %d, want 3000", r.Arrivals)
	}
	if r.Completed != r.Arrivals {
		t.Fatalf("Completed = %d, Arrivals = %d: jobs were lost", r.Completed, r.Arrivals)
	}
	if r.Events != 2*r.Arrivals {
		t.Fatalf("Events = %d, want one arrival + one departure per job = %d", r.Events, 2*r.Arrivals)
	}
	if got := r.Hits + r.Misses; got != uint64(r.Arrivals) {
		t.Fatalf("cache saw %d lookups for %d arrivals", got, r.Arrivals)
	}
	if r.EnergyJ <= 0 || r.MaxEnergyJ <= 0 {
		t.Fatalf("non-positive energy accounting: %v / %v", r.EnergyJ, r.MaxEnergyJ)
	}
	if r.EnergyJ > r.MaxEnergyJ*(1+1e-12) {
		t.Fatalf("planned energy %v exceeds the always-max baseline %v", r.EnergyJ, r.MaxEnergyJ)
	}
	if r.Missed < 0 || r.Missed > r.Completed {
		t.Fatalf("Missed = %d out of %d", r.Missed, r.Completed)
	}
}

// TestSimulateDeadlines checks the deadline rule end to end: generous
// slack under light load misses nothing, and a slack far below the
// fastest point's predicted time misses everything.
func TestSimulateDeadlines(t *testing.T) {
	sw := fleetSweeper(t)
	runs := catalogueRuns(8)

	relaxed, err := New(sw, runs, Config{
		Nodes: 64, Rate: 2, Slack: 10, MaxArrivals: 500, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := relaxed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Missed != 0 {
		t.Fatalf("light load with 10x slack missed %d deadlines", r.Missed)
	}

	impossible, err := New(sw, runs, Config{
		Nodes: 64, Rate: 2, Slack: 1e-9, MaxArrivals: 500, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err = impossible.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Missed != r.Completed {
		t.Fatalf("impossible slack missed %d of %d", r.Missed, r.Completed)
	}
}

// TestSimulateWorkerInvariance is the determinism contract: the same
// configuration produces bit-identical deterministic fields for any
// worker count, because workers parallelize whole replications.
func TestSimulateWorkerInvariance(t *testing.T) {
	sw := fleetSweeper(t)
	runs := catalogueRuns(64)
	results := map[int]Result{}
	for _, workers := range []int{1, 4, 16} {
		s, err := New(sw, runs, Config{
			Nodes: 32, Rate: 30, Dist: DistBursty,
			MaxArrivals: 1500, Seed: 17,
			Replications: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		results[workers] = r
	}
	base := results[1]
	for _, workers := range []int{4, 16} {
		r := results[workers]
		if r.Digest != base.Digest {
			t.Fatalf("digest at %d workers = %x, at 1 worker = %x", workers, r.Digest, base.Digest)
		}
		if r.Arrivals != base.Arrivals || r.Completed != base.Completed ||
			r.Missed != base.Missed || r.Backfilled != base.Backfilled {
			t.Fatalf("counts diverge at %d workers: %+v vs %+v", workers, r, base)
		}
		if math.Float64bits(r.EnergyJ) != math.Float64bits(base.EnergyJ) ||
			math.Float64bits(r.MaxEnergyJ) != math.Float64bits(base.MaxEnergyJ) {
			t.Fatalf("energy diverges at %d workers", workers)
		}
		if r.Hits != base.Hits || r.Misses != base.Misses {
			t.Fatalf("cache counters diverge at %d workers", workers)
		}
		for i := range r.Reps {
			if r.Reps[i].Digest != base.Reps[i].Digest {
				t.Fatalf("replication %d digest diverges at %d workers", i, workers)
			}
		}
	}
}

// TestSimulateRepeatable: two Runs of the same Sim agree bit for bit.
func TestSimulateRepeatable(t *testing.T) {
	sw := fleetSweeper(t)
	s, err := New(sw, catalogueRuns(16), Config{
		Nodes: 8, Rate: 25, Dist: DistUniform, Duration: 40, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Arrivals != b.Arrivals || a.Missed != b.Missed {
		t.Fatalf("repeated Run diverged: %+v vs %+v", a, b)
	}
}

// TestSimulateSteadyStateZeroAlloc is the perf contract the benchmarks
// publish: with the catalogue prewarmed, the event loop's steady segment
// performs no heap allocations.
func TestSimulateSteadyStateZeroAlloc(t *testing.T) {
	sw := fleetSweeper(t)
	runs := catalogueRuns(64)
	rate := stableRate(t, sw, runs, 32, 4, 4, 1.5, 0.6)
	s, err := New(sw, runs, Config{
		Nodes: 32, Rate: rate, Dist: DistZipf,
		MaxArrivals: 20000, Warmup: 2000, Prewarm: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.SteadyEvents == 0 {
		t.Fatal("steady segment never opened")
	}
	if r.LoopAllocs != 0 && !raceEnabled {
		t.Fatalf("steady-state event loop allocated %d times over %d events", r.LoopAllocs, r.SteadyEvents)
	}
	if r.Misses != 0 {
		t.Fatalf("prewarmed run still missed the cache %d times", r.Misses)
	}
}

// TestSimulateBacklogBackfills forces queueing (tiny cluster, high rate)
// and checks that blocked jobs are eventually backfilled in FIFO order
// rather than lost.
func TestSimulateBacklogBackfills(t *testing.T) {
	sw := fleetSweeper(t)
	s, err := New(sw, catalogueRuns(8), Config{
		Nodes: 2, GPUsPerNode: 2, Rate: 100, MaxArrivals: 400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Backfilled == 0 {
		t.Fatal("overloaded cluster never backfilled from the backlog")
	}
	if r.Completed != r.Arrivals {
		t.Fatalf("backlogged jobs lost: %d of %d completed", r.Completed, r.Arrivals)
	}
}
