package workloads

import (
	"fmt"
	"testing"

	sim "gpudvfs/internal/backend/sim"
)

func TestRegistryCounts(t *testing.T) {
	if got := len(SPECACCEL()); got != 19 {
		t.Fatalf("SPEC ACCEL has %d benchmarks, want 19", got)
	}
	if got := len(MicroBenchmarks()); got != 2 {
		t.Fatalf("micro-benchmarks = %d, want 2", got)
	}
	if got := len(TrainingSet()); got != 21 {
		t.Fatalf("training set = %d, want 21 (paper §4.3)", got)
	}
	if got := len(RealApps()); got != 6 {
		t.Fatalf("real apps = %d, want 6", got)
	}
	if got := len(All()); got != 27 {
		t.Fatalf("all workloads = %d, want 27", got)
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, w := range All() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestNamesUniqueAndSorted(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Fatalf("duplicate workload %q", n)
		}
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Fatalf("names not sorted at %d: %q >= %q", i, names[i-1], n)
		}
	}
	if len(names) != 27 {
		t.Fatalf("%d names", len(names))
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("LAMMPS")
	if err != nil || w.Name != "LAMMPS" {
		t.Fatalf("ByName(LAMMPS) = %v, %v", w.Name, err)
	}
	if _, err := ByName("lammps"); err == nil {
		t.Fatal("ByName should be case sensitive")
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestByNameMatchesAll pins the name index against the catalogue it
// indexes: every name resolves to its All entry, an unknown name keeps the
// error text listing the catalogue, and a hit allocates nothing.
func TestByNameMatchesAll(t *testing.T) {
	all := All()
	for _, name := range Names() {
		got, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		found := false
		for _, w := range all {
			if w.Name == name {
				found = true
				if got != w {
					t.Fatalf("ByName(%q) = %+v, All entry %+v", name, got, w)
				}
			}
		}
		if !found {
			t.Fatalf("%q is in Names but not in All", name)
		}
	}
	_, err := ByName("NOPE")
	if want := fmt.Sprintf("workloads: unknown workload %q (have %v)", "NOPE", Names()); err == nil || err.Error() != want {
		t.Fatalf("unknown name: err %v, want %q", err, want)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("LAMMPS") }); n != 0 {
		t.Fatalf("ByName hit allocates %v times", n)
	}
}

func TestTrainingAndEvalDisjoint(t *testing.T) {
	train := map[string]bool{}
	for _, w := range TrainingSet() {
		train[w.Name] = true
	}
	for _, w := range RealApps() {
		if train[w.Name] {
			t.Fatalf("%s appears in both training and evaluation sets", w.Name)
		}
	}
}

func TestWorkloadCharacters(t *testing.T) {
	dgemm := DGEMM()
	if dgemm.ComputeSec <= dgemm.MemorySec {
		t.Fatal("DGEMM must be compute-bound")
	}
	if dgemm.SizeComputeExp != 3 || dgemm.SizeMemoryExp != 2 {
		t.Fatal("DGEMM size exponents must be n³/n² (paper §4.2.3)")
	}
	stream := STREAM()
	if stream.MemorySec <= stream.ComputeSec {
		t.Fatal("STREAM must be memory-bound")
	}
	gromacs := GROMACS()
	if gromacs.HostSec <= gromacs.ComputeSec+gromacs.MemorySec {
		t.Fatal("GROMACS must be host-dominated (DVFS-insensitive, paper §5.1)")
	}
	lstm := LSTM()
	if lstm.HostSec <= 2*(lstm.ComputeSec+lstm.MemorySec) {
		t.Fatal("LSTM must be low-utilization (paper §7)")
	}
	resnet := ResNet50()
	for _, w := range All() {
		if w.Name != resnet.Name && w.RunVariability > resnet.RunVariability {
			t.Fatalf("ResNet50 should be the noisiest workload, %s has %v", w.Name, w.RunVariability)
		}
	}
}

// TestComputeVsMemoryPowerSpread pins that the suite spans the power
// spectrum the paper's models must cover: at max clock, the most and least
// power-hungry training workloads differ by at least 3×.
func TestTrainingSetPowerSpread(t *testing.T) {
	a := sim.GA100()
	lo, hi := a.TDPWatts*10, 0.0
	for _, w := range TrainingSet() {
		s, err := sim.Evaluate(a, w, a.MaxFreqMHz)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if s.PowerWatts < lo {
			lo = s.PowerWatts
		}
		if s.PowerWatts > hi {
			hi = s.PowerWatts
		}
	}
	if hi/lo < 3 {
		t.Fatalf("training power spread only %.1fx (%.0f..%.0f W)", hi/lo, lo, hi)
	}
}

// TestRealAppsInsideTrainingFeatureHull pins the coverage property the
// models rely on: each real app's (fp_active, dram_active) at max clock is
// within the bounding box of the training set's features (with margin).
func TestRealAppsInsideTrainingFeatureHull(t *testing.T) {
	a := sim.GA100()
	var loFP, hiFP, loDR, hiDR = 2.0, -1.0, 2.0, -1.0
	for _, w := range TrainingSet() {
		s, err := sim.Evaluate(a, w, a.MaxFreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		if s.FPActive < loFP {
			loFP = s.FPActive
		}
		if s.FPActive > hiFP {
			hiFP = s.FPActive
		}
		if s.DRAMActive < loDR {
			loDR = s.DRAMActive
		}
		if s.DRAMActive > hiDR {
			hiDR = s.DRAMActive
		}
	}
	const margin = 0.03
	for _, w := range RealApps() {
		s, err := sim.Evaluate(a, w, a.MaxFreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		if s.FPActive < loFP-margin || s.FPActive > hiFP+margin {
			t.Errorf("%s fp_active %.3f outside training range [%.3f, %.3f]", w.Name, s.FPActive, loFP, hiFP)
		}
		if s.DRAMActive < loDR-margin || s.DRAMActive > hiDR+margin {
			t.Errorf("%s dram_active %.3f outside training range [%.3f, %.3f]", w.Name, s.DRAMActive, loDR, hiDR)
		}
	}
}
