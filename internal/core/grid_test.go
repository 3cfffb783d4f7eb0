package core

import (
	"math"
	"strings"
	"testing"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
	"gpudvfs/internal/workloads"
)

// gridModels is serveModels with the memory-clock feature in the layout,
// so the mem axis actually reaches the networks.
func gridModels(t testing.TB) *Models {
	t.Helper()
	arch := sim.GA100().Spec()
	power, err := nn.NewNetwork(nn.PaperArch(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	tmodel, err := nn.NewNetwork(nn.PaperArch(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	return &Models{
		Features:   []string{"fp_active", "dram_active", "sm_app_clock", dataset.MemFeature},
		Scaler:     &stats.StandardScaler{Means: []float64{0.4, 0.3, 0.7, 0.9}, Stds: []float64{0.2, 0.15, 0.25, 0.3}},
		Power:      power,
		Time:       tmodel,
		TrainedOn:  arch.Name,
		TDPWatts:   arch.TDPWatts,
		MaxFreqMHz: arch.MaxFreqMHz,
	}
}

// oracleGridProfile is the 2-D analogue of oracleProfile: every grid point
// built per call as a full feature row through FeatureVectorGridInto, the
// whole grid scaled and predicted in one allocating pass. Memory-outer
// layout, matching the sweeper's documented ordering. It also returns the
// per-axis clamp counts the floors imply.
func oracleGridProfile(t *testing.T, m *Models, target backend.Arch, maxRun dcgm.Run, freqs, memFreqs []float64) ([]objective.Profile, Clamps) {
	t.Helper()
	mean := maxRun.MeanSample()
	defMem := target.DefaultMemClock()
	rows := make([][]float64, 0, len(freqs)*len(memFreqs))
	for _, mem := range memFreqs {
		for _, f := range freqs {
			row := make([]float64, len(m.Features))
			if err := dataset.FeatureVectorGridInto(row, m.Features, mean, f, target.MaxFreqMHz, dataset.MemRatio(mem, defMem)); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	if m.Scaler != nil {
		scaled, err := m.Scaler.Transform(rows)
		if err != nil {
			t.Fatal(err)
		}
		rows = scaled
	}
	pPred, err := m.Power.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	tPred, err := m.Time.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	var cl Clamps
	out := make([]objective.Profile, len(rows))
	for i := range rows {
		f := freqs[i%len(freqs)]
		mem := memFreqs[i/len(freqs)]
		onMem := mem != defMem
		power := pPred[i][0] * target.TDPWatts
		slow := tPred[i][0]
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
		out[i] = objective.Profile{
			FreqMHz:    f,
			MemFreqMHz: mem,
			PowerWatts: power,
			TimeSec:    maxRun.ExecTimeSec * slow,
		}
	}
	return out, cl
}

// gridProfilesIdentical is profilesIdentical including the memory axis.
func gridProfilesIdentical(a, b []objective.Profile) bool {
	if !profilesIdentical(a, b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].MemFreqMHz) != math.Float64bits(b[i].MemFreqMHz) {
			return false
		}
	}
	return true
}

// TestGridSweeperMatchesOracle2D checks the tentpole's correctness
// contract: the precomputed-static-plane hot path over the full
// (core × mem) grid is bit-identical to building every grid point's
// feature row from scratch, for models where the memory feature reaches
// the networks.
func TestGridSweeperMatchesOracle2D(t *testing.T) {
	m := gridModels(t)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	mems := arch.MemClocks()
	sw, err := m.NewSweeper(arch, freqs, mems)
	if err != nil {
		t.Fatal(err)
	}
	if sw.GridSize() != len(freqs)*len(mems) {
		t.Fatalf("grid size %d, want %d", sw.GridSize(), len(freqs)*len(mems))
	}
	for i, w := range []sim.KernelProfile{workloads.DGEMM(), workloads.STREAM(), workloads.LAMMPS()} {
		run := serveRun(t, int64(70+i), w)
		want, wantCl := oracleGridProfile(t, m, arch, run, freqs, mems)

		got := make([]objective.Profile, sw.GridSize())
		gotCl, err := sw.PredictProfileInto(got, run)
		if err != nil {
			t.Fatal(err)
		}
		if !gridProfilesIdentical(got, want) {
			t.Fatalf("%s: 2-D sweeper diverges from the per-point oracle", w.Name)
		}
		if gotCl != wantCl {
			t.Fatalf("%s: clamp split %+v, oracle %+v", w.Name, gotCl, wantCl)
		}
		// Second call hits the pooled workspace; the staged static plane
		// must not have been corrupted by the first pass.
		got2 := make([]objective.Profile, sw.GridSize())
		if _, err := sw.PredictProfileInto(got2, run); err != nil {
			t.Fatal(err)
		}
		if !gridProfilesIdentical(got2, want) {
			t.Fatalf("%s: second pooled call diverges", w.Name)
		}
	}
}

// TestGridSweeperDegenerate1D checks the N=1 acceptance criterion from
// both ends. A nil memory axis must reproduce the historical 1-D oracle
// bit-for-bit even when the models carry the memory feature; a
// single-point [defaultMem] axis must agree with the nil axis on every
// pre-existing field (only MemFreqMHz is newly reported) and attribute
// all clamps to the core axis.
func TestGridSweeperDegenerate1D(t *testing.T) {
	m := gridModels(t)
	arch := sim.GA100().Spec()
	freqs := arch.DesignClocks()
	swNil, err := m.NewSweeper(arch, freqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	swDef, err := m.NewSweeper(arch, freqs, []float64{arch.DefaultMemClock()})
	if err != nil {
		t.Fatal(err)
	}
	run := serveRun(t, 75, workloads.STREAM())

	want := oracleProfile(t, m, arch, run, freqs)
	gotNil, clNil, err := swNil.PredictProfile(run)
	if err != nil {
		t.Fatal(err)
	}
	if !profilesIdentical(gotNil, want) {
		t.Fatal("nil-mem grid sweeper diverges from the 1-D oracle")
	}
	for i := range gotNil {
		if gotNil[i].MemFreqMHz != 0 {
			t.Fatalf("1-D profile %d reports memory clock %v, want 0", i, gotNil[i].MemFreqMHz)
		}
	}

	gotDef, clDef, err := swDef.PredictProfile(run)
	if err != nil {
		t.Fatal(err)
	}
	if !profilesIdentical(gotDef, gotNil) {
		t.Fatal("[defaultMem] grid diverges from the nil-mem grid on pre-existing fields")
	}
	for i := range gotDef {
		if gotDef[i].MemFreqMHz != arch.DefaultMemClock() {
			t.Fatalf("default-mem profile %d reports %v, want %v", i, gotDef[i].MemFreqMHz, arch.DefaultMemClock())
		}
	}
	if clNil != clDef {
		t.Fatalf("clamp counts differ: nil %+v, [defaultMem] %+v", clNil, clDef)
	}
	if clNil.Mem != 0 || clDef.Mem != 0 {
		t.Fatalf("degenerate grids attributed clamps to the memory axis: %+v / %+v", clNil, clDef)
	}
}

// TestGridSweeperBatchMatchesSingle2D extends the fused-batch bit-identity
// contract to the 2-D grid: stacking several runs' grids into one forward
// pass must equal per-run PredictProfileInto calls exactly, clamp splits
// included.
func TestGridSweeperBatchMatchesSingle2D(t *testing.T) {
	m := gridModels(t)
	arch := sim.GA100().Spec()
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), arch.MemClocks())
	if err != nil {
		t.Fatal(err)
	}
	runs := []dcgm.Run{
		serveRun(t, 80, workloads.DGEMM()),
		serveRun(t, 81, workloads.STREAM()),
		serveRun(t, 82, workloads.LAMMPS()),
	}
	wantP := make([][]objective.Profile, len(runs))
	wantC := make([]Clamps, len(runs))
	for i, r := range runs {
		wantP[i] = make([]objective.Profile, sw.GridSize())
		if wantC[i], err = sw.PredictProfileInto(wantP[i], r); err != nil {
			t.Fatal(err)
		}
	}
	gotP := make([][]objective.Profile, len(runs))
	gotC := make([]Clamps, len(runs))
	for i := range gotP {
		gotP[i] = make([]objective.Profile, sw.GridSize())
	}
	if err := sw.PredictProfilesInto(gotP, gotC, runs); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if !gridProfilesIdentical(gotP[i], wantP[i]) {
			t.Fatalf("batched run %d diverges from the single-run sweep", i)
		}
		if gotC[i] != wantC[i] {
			t.Fatalf("batched run %d clamps %+v, single-run %+v", i, gotC[i], wantC[i])
		}
	}
}

// TestGridSweeperValidation pins the construction and per-run guards the
// 2-D extension added.
func TestGridSweeperValidation(t *testing.T) {
	m := gridModels(t)
	arch := sim.GA100().Spec()
	if _, err := m.NewSweeper(arch, arch.DesignClocks(), []float64{}); err == nil {
		t.Fatal("empty (non-nil) memory list accepted")
	}
	if _, err := m.NewSweeper(arch, arch.DesignClocks(), []float64{999}); err == nil {
		t.Fatal("unsupported memory clock accepted")
	}
	noMem := arch
	noMem.MemFreqMHz = 0
	noMem.Name = "NOMEM"
	if _, err := m.NewSweeper(noMem, arch.DesignClocks(), []float64{810}); err == nil {
		t.Fatal("memory axis accepted on an architecture without one")
	}
	sw, err := m.NewSweeper(arch, arch.DesignClocks(), arch.MemClocks())
	if err != nil {
		t.Fatal(err)
	}
	run := serveRun(t, 85, workloads.DGEMM())
	short := make([]objective.Profile, len(arch.DesignClocks()))
	if _, err := sw.PredictProfileInto(short, run); err == nil {
		t.Fatal("1-D-sized buffer accepted for a 2-D sweep")
	}
	offDefault := run
	offDefault.MemFreqMHz = 810
	full := make([]objective.Profile, sw.GridSize())
	if _, err := sw.PredictProfileInto(full, offDefault); err == nil {
		t.Fatal("profiling run at an off-default memory clock accepted")
	}
}

// TestPlanCacheKeyMemAxis pins the cache-key compatibility contract: a
// core-only cache's keys carry no memory section (byte-identical to the
// pre-grid format), while a grid cache's prefix names its memory list.
func TestPlanCacheKeyMemAxis(t *testing.T) {
	m := gridModels(t)
	arch := sim.GA100().Spec()
	mk := func(mems []float64) *PlanCache {
		sw, err := m.NewSweeper(arch, arch.DesignClocks(), mems)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := NewPlanCache(sw, PlanCacheConfig{Objective: objective.EDP{}})
		if err != nil {
			t.Fatal(err)
		}
		return pc
	}
	pc1 := mk(nil)
	if strings.Contains(pc1.prefix, "mem") {
		t.Fatalf("core-only cache prefix %q mentions the memory axis", pc1.prefix)
	}
	pc2 := mk([]float64{1597, 810})
	if !strings.Contains(pc2.prefix, "mem:1597:810|") {
		t.Fatalf("grid cache prefix %q does not name its memory list", pc2.prefix)
	}
}
