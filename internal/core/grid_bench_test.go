package core

import (
	"testing"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/mat"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
)

// naiveForward runs one inference pass through the network with freshly
// allocated intermediates at every layer — the cost of serving without the
// Predictor's pooled workspaces. Accumulation order matches the pooled
// path (both sit on mat.MulTBInto), so outputs are bit-identical.
func naiveForward(n *nn.Network, x *mat.Matrix) *mat.Matrix {
	a := x
	for _, l := range n.Layers {
		z := mat.New(a.Rows, l.Out)
		mat.MulTBInto(z, a, l.W)
		z.AddRowVec(l.B)
		z.Apply(l.Act.Func)
		a = z
	}
	return a
}

// naiveSweep is the build-everything-per-call reference arm: each call
// reconstructs the (core × mem) feature grid from scratch, rescales it,
// and forwards both networks through naiveForward. This is what the hot
// path would cost without the Sweeper's precomputed static plane.
// memFreqs == nil degenerates to the 1-D core-frequency line.
func naiveSweep(m *Models, target backend.Arch, maxRun dcgm.Run, freqs, memFreqs []float64, dst []objective.Profile) (Clamps, error) {
	var cl Clamps
	mean := maxRun.MeanSample()
	defMem := target.DefaultMemClock()
	mems := memFreqs
	if mems == nil {
		defMem = 0
		mems = []float64{0}
	}
	nF := len(freqs)
	rows := make([][]float64, 0, nF*len(mems))
	for _, mem := range mems {
		for _, f := range freqs {
			row := make([]float64, len(m.Features))
			if err := dataset.FeatureVectorGridInto(row, m.Features, mean, f, target.MaxFreqMHz, dataset.MemRatio(mem, defMem)); err != nil {
				return cl, err
			}
			rows = append(rows, row)
		}
	}
	if m.Scaler != nil {
		scaled, err := m.Scaler.Transform(rows)
		if err != nil {
			return cl, err
		}
		rows = scaled
	}
	x := mat.New(len(rows), len(m.Features))
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	pP := naiveForward(m.Power, x)
	tP := naiveForward(m.Time, x)
	for g := range dst {
		power := pP.At(g, 0) * target.TDPWatts
		slow := tP.At(g, 0)
		mem := 0.0
		onMem := false
		if memFreqs != nil {
			mem = memFreqs[g/nF]
			onMem = mem != defMem
		}
		if power < 1 {
			power = 1
			if onMem {
				cl.Mem++
			} else {
				cl.Core++
			}
		}
		if slow < 1e-6 {
			slow = 1e-6
			if onMem {
				cl.Mem++
			} else {
				cl.Core++
			}
		}
		dst[g] = objective.Profile{
			FreqMHz:    freqs[g%nF],
			MemFreqMHz: mem,
			PowerWatts: power,
			TimeSec:    maxRun.ExecTimeSec * slow,
		}
	}
	return cl, nil
}

// benchSweepArm drives one sweep arm of models m: naive rebuilds
// everything per call, optimized sits on a pre-built Sweeper with a
// caller-owned buffer.
func benchSweepArm(b *testing.B, m *Models, memFreqs []float64, naive bool) {
	run := benchProfileRun(b)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	sw, err := m.NewSweeper(arch, freqs, memFreqs)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]objective.Profile, sw.GridSize())
	// Sanity: the naive arm must agree with the sweeper bit for bit, or
	// the two arms are not measuring the same computation.
	want := make([]objective.Profile, sw.GridSize())
	if _, err := sw.PredictProfileInto(want, run); err != nil {
		b.Fatal(err)
	}
	if _, err := naiveSweep(m, arch, run, freqs, memFreqs, dst); err != nil {
		b.Fatal(err)
	}
	if !gridProfilesIdentical(dst, want) {
		b.Fatal("naive sweep and Sweeper disagree")
	}
	b.ReportAllocs()
	b.ResetTimer()
	if naive {
		for i := 0; i < b.N; i++ {
			if _, err := naiveSweep(m, arch, run, freqs, memFreqs, dst); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		if _, err := sw.PredictProfileInto(dst, run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep1DNaive is the 61-point core-frequency line rebuilt from
// scratch on every call — the pre-Sweeper reference cost.
func BenchmarkSweep1DNaive(b *testing.B) { benchSweepArm(b, gridModels(b), nil, true) }

// BenchmarkSweep1D is the optimized 61-point line: precomputed static
// plane, pooled workspaces, zero steady-state allocations.
func BenchmarkSweep1D(b *testing.B) { benchSweepArm(b, gridModels(b), nil, false) }

// BenchmarkSweep2DNaive rebuilds the full 61×3 (core × mem) grid per call.
func BenchmarkSweep2DNaive(b *testing.B) {
	benchSweepArm(b, gridModels(b), sim.GA100().Spec().MemClocks(), true)
}

// BenchmarkSweep2D is the acceptance benchmark: the 61×3 grid on the
// precomputed-plane hot path must stay within ~1.5× the 1-D sweep's
// ns/op at zero allocations, because the static plane means tripling the
// grid only triples the inference rows, not the feature construction.
func BenchmarkSweep2D(b *testing.B) {
	benchSweepArm(b, gridModels(b), sim.GA100().Spec().MemClocks(), false)
}

// BenchmarkSweep2DCoreModel is the 61×3 grid with paper-feature models
// (no mem_app_clock): the sweeper infers the 61 distinct rows once and
// composes all 183 profiles from them.
func BenchmarkSweep2DCoreModel(b *testing.B) {
	benchSweepArm(b, benchModels(b), sim.GA100().Spec().MemClocks(), false)
}
