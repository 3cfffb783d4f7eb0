// Package workloads defines the kernel profiles for every application in
// the paper's Table 2: the 21 training workloads (DGEMM, STREAM, and the 19
// SPEC ACCEL benchmarks) and the 6 real-world evaluation applications
// (LAMMPS, NAMD, GROMACS, LSTM, BERT, ResNet50).
//
// Each profile is a synthetic stand-in for the corresponding CUDA
// application, parameterized to match the paper's qualitative description:
// DGEMM is compute-bound (FP pipes near saturation, ~100% TDP at max
// clock), STREAM is memory-bound (~50% TDP, insensitive to clocks above
// ~900 MHz), the SPEC ACCEL suite spans the compute/memory intensity
// spectrum, GROMACS has a large host-bound fraction that makes its runtime
// nearly DVFS-insensitive (paper §5.1), LSTM is a low-utilization workload
// with plenty of energy headroom (paper §7), and ResNet50 has high
// run-to-run variability, matching its outlier behaviour in Table 5.
//
// The evaluation applications are deliberately disjoint from the training
// set: the models never see their profiles during training, which is the
// generalization test the paper performs.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	sim "gpudvfs/internal/backend/sim"
)

// DGEMM returns the compute-intensive micro-benchmark profile (CUDA
// cuBLAS matrix multiply in the paper). Compute demand scales with n³ and
// memory demand with n², so dram_active drifts slightly with input size
// while fp_active does not (paper §4.2.3).
func DGEMM() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "DGEMM",
		ComputeSec:     2.0,
		MemorySec:      0.5,
		HostSec:        0.04,
		FPIntensity:    0.93,
		MemIntensity:   0.90,
		Overlap:        0.95,
		FP64Fraction:   0.95,
		SMActive:       0.98,
		SMOccupancy:    0.65,
		PCIeTxMBps:     900,
		PCIeRxMBps:     300,
		RunVariability: 0.008,
		SizeComputeExp: 3,
		SizeMemoryExp:  2,
	}
}

// STREAM returns the memory-intensive micro-benchmark profile (GPU-STREAM
// triad in the paper). Both demands scale linearly with input size, so its
// features are size-invariant (paper §4.2.3).
func STREAM() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "STREAM",
		ComputeSec:     0.12,
		MemorySec:      1.5,
		HostSec:        0.02,
		FPIntensity:    0.80,
		MemIntensity:   0.95,
		Overlap:        0.90,
		FP64Fraction:   0.50,
		SMActive:       0.85,
		SMOccupancy:    0.92,
		PCIeTxMBps:     200,
		PCIeRxMBps:     100,
		RunVariability: 0.008,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// specSpec is the compact parameterization of one SPEC ACCEL benchmark.
type specSpec struct {
	name               string
	tc, tm, host       float64
	fpI, memI, overlap float64
	fp64, smAct, occ   float64
	pcieTx, pcieRx, rv float64
}

// The 19 SPEC ACCEL benchmarks, spread across the compute/memory intensity
// spectrum so the training data covers the feature space the models must
// generalize over.
var specSpecs = []specSpec{
	{"TPACF", 3.0, 0.55, 0.06, 0.90, 0.85, 0.90, 0.85, 0.96, 0.60, 400, 150, 0.01},
	{"STENCIL", 0.45, 1.6, 0.03, 0.85, 0.92, 0.85, 0.80, 0.88, 0.85, 300, 120, 0.01},
	{"LBM", 0.50, 2.2, 0.06, 0.82, 0.95, 0.90, 0.90, 0.85, 0.88, 350, 140, 0.01},
	{"FFT", 1.4, 1.3, 0.06, 0.88, 0.88, 0.82, 0.70, 0.92, 0.70, 500, 250, 0.012},
	{"SPMV", 0.30, 1.7, 0.04, 0.80, 0.84, 0.80, 0.85, 0.86, 0.80, 250, 100, 0.015},
	{"MRIQ", 2.4, 0.30, 0.05, 0.94, 0.82, 0.90, 0.60, 0.97, 0.55, 300, 120, 0.008},
	{"HISTO", 0.80, 1.3, 0.45, 0.82, 0.85, 0.80, 0.40, 0.88, 0.75, 450, 200, 0.015},
	{"BFS", 0.25, 1.6, 0.60, 0.78, 0.83, 0.80, 0.30, 0.85, 0.72, 200, 90, 0.02},
	{"CUTCP", 2.1, 0.42, 0.04, 0.92, 0.84, 0.88, 0.75, 0.95, 0.62, 350, 130, 0.009},
	{"KMEANS", 1.0, 1.2, 0.35, 0.84, 0.86, 0.82, 0.55, 0.89, 0.78, 550, 260, 0.012},
	{"LAVAMD", 2.6, 0.65, 0.06, 0.90, 0.85, 0.85, 0.80, 0.94, 0.58, 320, 110, 0.01},
	{"CFD", 0.60, 1.7, 0.07, 0.82, 0.90, 0.83, 0.85, 0.87, 0.82, 380, 160, 0.012},
	{"NW", 0.50, 0.45, 2.2, 0.80, 0.84, 0.82, 0.60, 0.86, 0.50, 280, 130, 0.015},
	{"HOTSPOT", 1.2, 1.1, 0.05, 0.86, 0.86, 0.84, 0.70, 0.91, 0.68, 400, 170, 0.01},
	{"LUD", 1.5, 0.75, 0.07, 0.88, 0.83, 0.82, 0.75, 0.90, 0.60, 360, 150, 0.012},
	{"GE", 1.0, 1.1, 0.09, 0.83, 0.84, 0.81, 0.70, 0.88, 0.66, 330, 140, 0.012},
	{"SRAD", 0.70, 1.6, 0.05, 0.81, 0.89, 0.84, 0.65, 0.86, 0.80, 300, 130, 0.011},
	{"HEARTWALL", 1.1, 1.0, 0.11, 0.85, 0.85, 0.80, 0.55, 0.90, 0.64, 420, 190, 0.013},
	{"BPLUSTREE", 0.25, 0.35, 4.0, 0.79, 0.83, 0.80, 0.45, 0.85, 0.55, 240, 110, 0.018},
}

func (s specSpec) profile() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           s.name,
		ComputeSec:     s.tc,
		MemorySec:      s.tm,
		HostSec:        s.host,
		FPIntensity:    s.fpI,
		MemIntensity:   s.memI,
		Overlap:        s.overlap,
		FP64Fraction:   s.fp64,
		SMActive:       s.smAct,
		SMOccupancy:    s.occ,
		PCIeTxMBps:     s.pcieTx,
		PCIeRxMBps:     s.pcieRx,
		RunVariability: s.rv,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// specHostOverlap gives the host-heavy suite members a degree of
// host/GPU concurrency (driver pipelining), so the training data contains
// a taste of the bottlenecked-elsewhere behaviour GROMACS exhibits.
var specHostOverlap = map[string]float64{
	"NW":        0.25,
	"BPLUSTREE": 0.30,
}

// SPECACCEL returns the 19 SPEC ACCEL benchmark profiles.
func SPECACCEL() []sim.KernelProfile {
	out := make([]sim.KernelProfile, 0, len(specSpecs))
	for _, s := range specSpecs {
		p := s.profile()
		p.HostOverlap = specHostOverlap[p.Name]
		out = append(out, p)
	}
	return out
}

// LAMMPS returns the Lennard-Jones 3D melt profile: a compute-leaning
// molecular-dynamics particle simulation.
func LAMMPS() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "LAMMPS",
		ComputeSec:     5.2,
		MemorySec:      2.3,
		HostSec:        0.35,
		FPIntensity:    0.88,
		MemIntensity:   0.86,
		Overlap:        0.85,
		FP64Fraction:   0.90,
		SMActive:       0.94,
		SMOccupancy:    0.62,
		PCIeTxMBps:     700,
		PCIeRxMBps:     350,
		RunVariability: 0.012,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// NAMD returns the ApoA1 (92,224 atoms) biomolecular simulation profile:
// strongly compute-bound with good overlap.
func NAMD() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "NAMD",
		ComputeSec:     6.0,
		MemorySec:      2.0,
		HostSec:        0.55,
		FPIntensity:    0.90,
		MemIntensity:   0.84,
		Overlap:        0.90,
		FP64Fraction:   0.85,
		SMActive:       0.95,
		SMOccupancy:    0.60,
		PCIeTxMBps:     650,
		PCIeRxMBps:     320,
		RunVariability: 0.012,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// GROMACS returns the lysozyme-in-water simulation profile. A large
// host-bound fraction (constraint solving and neighbour-list work pinned
// to the CPU in this configuration) makes its wall time nearly insensitive
// to GPU DVFS — the behaviour the paper reports in §5.1 and plans to
// address in future work.
func GROMACS() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "GROMACS",
		ComputeSec:     1.6,
		MemorySec:      1.2,
		HostSec:        8.2,
		FPIntensity:    0.50,
		MemIntensity:   0.60,
		Overlap:        0.82,
		HostOverlap:    0.60,
		FP64Fraction:   0.60,
		SMActive:       0.90,
		SMOccupancy:    0.58,
		PCIeTxMBps:     800,
		PCIeRxMBps:     450,
		RunVariability: 0.012,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// LSTM returns the TensorFlow sentiment-classification training profile: a
// low-utilization workload (small kernels, input pipeline on the host)
// with substantial energy headroom, per the paper's §7 discussion.
func LSTM() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "LSTM",
		ComputeSec:     0.45,
		MemorySec:      0.65,
		HostSec:        6.0,
		FPIntensity:    0.40,
		MemIntensity:   0.55,
		Overlap:        0.80,
		HostOverlap:    0.50,
		FP64Fraction:   0.02,
		SMActive:       0.86,
		SMOccupancy:    0.35,
		PCIeTxMBps:     1400,
		PCIeRxMBps:     500,
		RunVariability: 0.015,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// BERT returns the movie-review language-model training profile:
// compute-heavy transformer layers with healthy memory traffic.
func BERT() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "BERT",
		ComputeSec:     6.5,
		MemorySec:      3.2,
		HostSec:        0.9,
		FPIntensity:    0.87,
		MemIntensity:   0.87,
		Overlap:        0.88,
		FP64Fraction:   0.03,
		SMActive:       0.93,
		SMOccupancy:    0.70,
		PCIeTxMBps:     1800,
		PCIeRxMBps:     600,
		RunVariability: 0.014,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// ResNet50 returns the CIFAR-10 training profile. Its high run-to-run
// variability (input pipeline jitter, cuDNN autotuning) makes it the
// outlier of the evaluation set, as the paper observes around Table 5.
func ResNet50() sim.KernelProfile {
	return sim.KernelProfile{
		Name:           "ResNet50",
		ComputeSec:     3.6,
		MemorySec:      3.1,
		HostSec:        2.6,
		FPIntensity:    0.84,
		MemIntensity:   0.85,
		Overlap:        0.80,
		FP64Fraction:   0.02,
		SMActive:       0.88,
		SMOccupancy:    0.55,
		PCIeTxMBps:     2400,
		PCIeRxMBps:     700,
		RunVariability: 0.04,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// MicroBenchmarks returns DGEMM and STREAM.
func MicroBenchmarks() []sim.KernelProfile {
	return []sim.KernelProfile{DGEMM(), STREAM()}
}

// TrainingSet returns the 21 profiles the paper trains on: DGEMM, STREAM,
// and the SPEC ACCEL suite.
func TrainingSet() []sim.KernelProfile {
	return append(MicroBenchmarks(), SPECACCEL()...)
}

// RealApps returns the six real-world evaluation applications, in the
// paper's order.
func RealApps() []sim.KernelProfile {
	return []sim.KernelProfile{LAMMPS(), NAMD(), GROMACS(), LSTM(), BERT(), ResNet50()}
}

// All returns every workload profile defined by this package.
func All() []sim.KernelProfile {
	return append(TrainingSet(), RealApps()...)
}

// byName indexes All by name, built once on first use. A KernelProfile
// holds no references, so handing out copies of the indexed values is safe.
var byName = sync.OnceValue(func() map[string]sim.KernelProfile {
	all := All()
	m := make(map[string]sim.KernelProfile, len(all))
	for _, w := range all {
		m[w.Name] = w
	}
	return m
})

// ByName returns the named workload profile (case-sensitive, as printed by
// Names). A hit does not allocate: the serving daemon resolves a name on
// every request.
func ByName(name string) (sim.KernelProfile, error) {
	if w, ok := byName()[name]; ok {
		return w, nil
	}
	return sim.KernelProfile{}, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
}

// Names lists every defined workload name, sorted.
func Names() []string {
	all := All()
	names := make([]string, 0, len(all))
	for _, w := range all {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return names
}
