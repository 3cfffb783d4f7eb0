package core

import (
	"encoding/json"
	"fmt"
	"os"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
)

// OfflineResult is what the offline phase produces: the trained models
// and the datasets they were trained on (kept for inspection, the MI
// study, and the ablations).
type OfflineResult struct {
	Models *Models
	// Dataset holds the per-run aggregates (one point per run; the time
	// model's training data and the feature-study input).
	Dataset *dataset.Dataset
	// SampleDataset holds the per-sample, phase-resolved telemetry points
	// (the power model's training data).
	SampleDataset *dataset.Dataset
	Runs          []dcgm.Run
}

// OfflineTrainSamplesPerRun caps how many 20 ms samples each training run
// contributes to the power model's dataset. Collection campaigns produce
// thousands of runs, so a handful of samples per run yields a large and
// phase-diverse dataset at tractable training cost.
const OfflineTrainSamplesPerRun = 6

// OfflineTrain runs the complete offline phase on a device: collect
// telemetry for the training workloads across the DVFS design space, build
// the per-run and per-sample datasets, and train both models.
func OfflineTrain(dev backend.Device, training []backend.Workload, collect dcgm.Config, opts TrainOptions) (*OfflineResult, error) {
	if collect.MaxSamplesPerRun == 0 {
		collect.MaxSamplesPerRun = OfflineTrainSamplesPerRun
	}
	// Collect with the per-workload-seeded parallel collector: the runs it
	// returns are bit-identical for any worker count (including 1), so the
	// trained models depend only on the campaign config, never on how many
	// cores collected it.
	runs, err := dcgm.CollectAllParallel(dev, training, collect, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: offline collection: %w", err)
	}
	ds, err := dataset.Build(dev.Arch(), runs, dataset.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: building dataset: %w", err)
	}
	sds, err := dataset.Build(dev.Arch(), runs, dataset.Options{PerSample: true})
	if err != nil {
		return nil, fmt.Errorf("core: building sample dataset: %w", err)
	}
	models, err := TrainSplit(sds, ds, opts)
	if err != nil {
		return nil, err
	}
	// Record provenance: which backend produced the telemetry and the DVFS
	// table it swept, so serving can refuse a mismatched deployment.
	models.Backend = dev.Kind()
	models.DVFS = DVFSTableOf(dev.Arch())
	return &OfflineResult{Models: models, Dataset: ds, SampleDataset: sds, Runs: runs}, nil
}

// OnlineResult is the outcome of the online phase for one application.
type OnlineResult struct {
	Workload   string
	ProfileRun dcgm.Run            // the single max-clock profiling run
	Predicted  []objective.Profile // model predictions across the design space
	// Clamped counts predictions floored to the 1 W power / 1e-6 slowdown
	// safety bounds, across both axes. Non-zero means the models are
	// undertrained for this workload and the predictions should not be
	// trusted blindly.
	Clamped int
	// ClampedCore and ClampedMem split Clamped by design-space axis: core
	// counts clamps at the default memory P-state (every point of a 1-D
	// sweep), mem counts clamps at off-default memory clocks. A clean core
	// count with a dirty mem count means the models extrapolate badly along
	// the memory axis specifically.
	ClampedCore int
	ClampedMem  int
}

// OnlinePredict runs the online phase for one application on a device:
// profile once at the maximum clock, then predict power/time/energy for
// every (core, mem) pair in the architecture's design clocks × memFreqs.
// A nil memFreqs is the paper's core-only design space.
func OnlinePredict(dev backend.Device, m *Models, app backend.Workload, collect dcgm.Config, memFreqs []float64) (*OnlineResult, error) {
	coll := dcgm.NewCollector(dev, collect)
	run, err := coll.ProfileAtMax(app)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", app.WorkloadName(), err)
	}
	sw, err := m.GridSweeperFor(dev.Arch(), dev.Arch().DesignClocks(), memFreqs)
	if err != nil {
		return nil, fmt.Errorf("core: predicting %s: %w", app.WorkloadName(), err)
	}
	profiles, clamped, err := sw.PredictProfile(run)
	if err != nil {
		return nil, fmt.Errorf("core: predicting %s: %w", app.WorkloadName(), err)
	}
	return &OnlineResult{
		Workload:    app.WorkloadName(),
		ProfileRun:  run,
		Predicted:   profiles,
		Clamped:     clamped.Total(),
		ClampedCore: clamped.Core,
		ClampedMem:  clamped.Mem,
	}, nil
}

// Selection is a chosen frequency with its objective and trade-off against
// the maximum clock.
type Selection struct {
	Objective string
	FreqMHz   float64
	// MemFreqMHz is the selected memory P-state, 0 when selection ran over
	// a core-only (1-D) profile set.
	MemFreqMHz float64
	EnergyPct  float64
	TimePct    float64
}

// SelectFrequency applies an objective (optionally threshold-constrained;
// pass a negative threshold for the paper's unconstrained evaluation) to a
// set of profiles and reports the trade-off against the maximum clock.
func SelectFrequency(profiles []objective.Profile, obj objective.Objective, threshold float64) (Selection, error) {
	var chosen objective.Profile
	var err error
	if threshold < 0 {
		chosen, err = objective.SelectOptimal(profiles, obj)
	} else {
		chosen, err = objective.SelectWithThreshold(profiles, obj, threshold)
	}
	if err != nil {
		return Selection{}, err
	}
	to, err := objective.Evaluate(profiles, chosen)
	if err != nil {
		return Selection{}, err
	}
	return Selection{
		Objective:  obj.Name(),
		FreqMHz:    chosen.FreqMHz,
		MemFreqMHz: to.MemFreqMHz,
		EnergyPct:  to.EnergyPct,
		TimePct:    to.TimePct,
	}, nil
}

// manifest is the on-disk metadata companion to the two model files.
type manifest struct {
	Format       string     `json:"format"`
	Features     []string   `json:"features"`
	TrainedOn    string     `json:"trained_on"`
	TDPWatts     float64    `json:"tdp_watts"`
	MaxFreqMHz   float64    `json:"max_freq_mhz"`
	Backend      string     `json:"backend,omitempty"`
	DVFS         *DVFSTable `json:"dvfs,omitempty"`
	FeatureMeans []float64  `json:"feature_means,omitempty"`
	FeatureStds  []float64  `json:"feature_stds,omitempty"`
}

const manifestFormat = "gpudvfs-models/1"

func saveManifest(path string, m *Models) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	man := manifest{
		Format:     manifestFormat,
		Features:   m.Features,
		TrainedOn:  m.TrainedOn,
		TDPWatts:   m.TDPWatts,
		MaxFreqMHz: m.MaxFreqMHz,
		Backend:    m.Backend,
	}
	if !m.DVFS.IsZero() {
		dvfs := m.DVFS
		man.DVFS = &dvfs
	}
	if m.Scaler != nil {
		man.FeatureMeans = m.Scaler.Means
		man.FeatureStds = m.Scaler.Stds
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(man)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("core: writing manifest: %w", werr)
	}
	return cerr
}

func loadManifest(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var man manifest
	if err := json.NewDecoder(f).Decode(&man); err != nil {
		return nil, fmt.Errorf("core: reading manifest: %w", err)
	}
	if man.Format != manifestFormat {
		return nil, fmt.Errorf("core: unsupported manifest format %q, want %q", man.Format, manifestFormat)
	}
	m := &Models{
		Features:   man.Features,
		TrainedOn:  man.TrainedOn,
		TDPWatts:   man.TDPWatts,
		MaxFreqMHz: man.MaxFreqMHz,
		Backend:    man.Backend,
	}
	if man.DVFS != nil {
		m.DVFS = *man.DVFS
	}
	if len(man.FeatureMeans) > 0 {
		if len(man.FeatureMeans) != len(man.FeatureStds) {
			return nil, fmt.Errorf("core: manifest scaler has %d means but %d stds", len(man.FeatureMeans), len(man.FeatureStds))
		}
		m.Scaler = &stats.StandardScaler{Means: man.FeatureMeans, Stds: man.FeatureStds}
	}
	return m, nil
}
