// Package core implements the paper's primary contribution end to end
// (Figure 2): DNN-based power and performance models over mutual-
// information-selected GPU utilization features, and performance-aware
// optimal frequency selection with EDP/ED²P objectives.
//
// The workflow has two phases, mirroring §4:
//
//   - Offline training (Train / OfflineTrain): telemetry collected across
//     the full DVFS design space for the training benchmarks (DGEMM,
//     STREAM, SPEC ACCEL) is turned into a dataset, and two feed-forward
//     networks (3×64 SELU, RMSprop, MSE; 100 epochs for power, 25 for
//     time) are trained to map (fp_active, dram_active, sm_app_clock) to
//     power and slowdown.
//
//   - Online prediction (PredictProfile / OnlinePredict): an unseen
//     application is profiled once at the maximum clock; because the
//     selected features are DVFS- and input-size-invariant, that single
//     profile seeds predictions across every DVFS configuration, from
//     which the optimal frequency is selected.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/dataset"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/nn"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/stats"
)

// PaperPowerEpochs and PaperTimeEpochs are the epoch budgets of §4.3,
// chosen in the paper by watching the Figure 6 loss curves.
const (
	PaperPowerEpochs = 100
	PaperTimeEpochs  = 25
)

// TrainOptions configures model training. Zero values select the paper's
// configuration.
type TrainOptions struct {
	PowerEpochs int     // default PaperPowerEpochs
	TimeEpochs  int     // default PaperTimeEpochs
	Hidden      []int   // default {64,64,64}
	Activation  string  // default "selu"
	Optimizer   string  // default "rmsprop"
	LR          float64 // sets both models' learning rate; default per-model
	PowerLR     float64 // power model learning rate; default 0.002
	TimeLR      float64 // time model learning rate; default 0.001
	WeightDecay float64 // L2 weight decay; default 1e-4, negative disables
	Seed        int64   // weight init and shuffling; default 1
	// Workers bounds the goroutines used by the parallel stages that
	// consume these options (offline collection fan-out, cross-validation
	// folds). Zero means GOMAXPROCS. Results are bit-identical for any
	// worker count.
	Workers int
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.PowerEpochs == 0 {
		o.PowerEpochs = PaperPowerEpochs
	}
	if o.TimeEpochs == 0 {
		o.TimeEpochs = PaperTimeEpochs
	}
	if o.Hidden == nil {
		o.Hidden = []int{64, 64, 64}
	}
	if o.Activation == "" {
		o.Activation = "selu"
	}
	if o.Optimizer == "" {
		o.Optimizer = "rmsprop"
	}
	if o.LR != 0 {
		o.PowerLR, o.TimeLR = o.LR, o.LR
	}
	if o.PowerLR == 0 {
		o.PowerLR = 0.002
	}
	if o.TimeLR == 0 {
		o.TimeLR = 0.001
	}
	if o.WeightDecay == 0 {
		o.WeightDecay = 1e-4
	}
	if o.WeightDecay < 0 {
		o.WeightDecay = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Models bundles the trained power and performance networks with the
// feature layout and normalization context they were trained under.
type Models struct {
	Features   []string
	Scaler     *stats.StandardScaler // feature standardization fitted on the training set
	Power      *nn.Network
	Time       *nn.Network
	PowerHist  *nn.History
	TimeHist   *nn.History
	TrainedOn  string  // architecture name, informational
	TDPWatts   float64 // TDP of the trained-on architecture
	MaxFreqMHz float64 // maximum clock of the trained-on architecture

	// Backend records which device backend ("sim", "replay", ...) produced
	// the training telemetry. Informational; empty for models saved before
	// provenance was recorded.
	Backend string
	// DVFS is the trained-on architecture's DVFS table. A zero table means
	// unknown provenance (pre-provenance model files); otherwise serving
	// refuses a target claiming the same architecture name with a
	// different table (see CheckDVFS).
	DVFS DVFSTable

	// swMu guards the memoized per-target sweepers PredictProfile routes
	// through (see sweeper.go). Models must not be copied by value.
	swMu     sync.Mutex
	sweepers map[string]*Sweeper
}

// DVFSTable is the provenance record of a device's frequency design
// space: the bounds and step of the supported-clock ladder plus the floor
// of the paper's design-space subset.
type DVFSTable struct {
	MinMHz       float64 `json:"min_mhz"`
	MaxMHz       float64 `json:"max_mhz"`
	StepMHz      float64 `json:"step_mhz"`
	DesignMinMHz float64 `json:"design_min_mhz"`
}

// IsZero reports whether the table carries no provenance.
func (t DVFSTable) IsZero() bool { return t == DVFSTable{} }

// DVFSTableOf extracts the provenance table from an architecture spec.
func DVFSTableOf(a backend.Arch) DVFSTable {
	return DVFSTable{
		MinMHz:       a.MinFreqMHz,
		MaxMHz:       a.MaxFreqMHz,
		StepMHz:      a.StepMHz,
		DesignMinMHz: a.DesignMinFreqMHz,
	}
}

// CheckDVFS guards against serving a model on a device that claims the
// trained-on architecture but exposes a different DVFS table (a
// misconfigured replay trace, a renamed arch). Cross-architecture
// prediction — a target with a *different* name — is a supported feature
// and always passes; so do models without recorded provenance.
func (m *Models) CheckDVFS(target backend.Arch) error {
	if m.DVFS.IsZero() || target.Name != m.TrainedOn {
		return nil
	}
	got := DVFSTableOf(target)
	if got != m.DVFS {
		return fmt.Errorf("core: target %s DVFS table %+v does not match the table the model was trained on %+v",
			target.Name, got, m.DVFS)
	}
	return nil
}

// Train fits the power and time models on a dataset built by
// dataset.Build. The power model targets the TDP fraction; the time model
// targets the slowdown relative to the maximum clock.
func Train(ds *dataset.Dataset, opts TrainOptions) (*Models, error) {
	return TrainSplit(ds, ds, opts)
}

// TrainSplit fits the power model on powerDS and the time model on
// timeDS. The offline phase uses per-sample (20 ms, phase-resolved)
// telemetry for power — instantaneous power is a per-sample quantity, and
// the host-idle samples anchor the model's power floor at every clock —
// while execution time is a per-run quantity, so the time model trains on
// per-run aggregates. Both datasets must share a feature layout.
func TrainSplit(powerDS, timeDS *dataset.Dataset, opts TrainOptions) (*Models, error) {
	if len(powerDS.Points) == 0 || len(timeDS.Points) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if len(powerDS.FeatureNames) != len(timeDS.FeatureNames) {
		return nil, fmt.Errorf("core: datasets disagree on features: %v vs %v", powerDS.FeatureNames, timeDS.FeatureNames)
	}
	for i, n := range powerDS.FeatureNames {
		if timeDS.FeatureNames[i] != n {
			return nil, fmt.Errorf("core: datasets disagree on features: %v vs %v", powerDS.FeatureNames, timeDS.FeatureNames)
		}
	}
	ds := powerDS
	opts = opts.withDefaults()

	arch := nn.Arch{
		Inputs:    len(ds.FeatureNames),
		Hidden:    opts.Hidden,
		Outputs:   1,
		HiddenAct: opts.Activation,
		OutputAct: "linear",
	}
	mkTrainCfg := func(epochs int, lr float64) nn.TrainConfig {
		cfg := nn.PaperTrainConfig(epochs)
		cfg.Optimizer = nn.OptimizerConfig{Name: opts.Optimizer, LearningRate: lr}
		cfg.Seed = opts.Seed
		cfg.WeightDecay = opts.WeightDecay
		return cfg
	}

	// Standardize features: SELU's self-normalizing property assumes
	// zero-mean unit-variance inputs, and every other activation trains
	// better for it too. The scaler is fitted on the power dataset, whose
	// per-sample points span the wider feature range.
	scaler := &stats.StandardScaler{}
	if err := scaler.Fit(powerDS.X()); err != nil {
		return nil, fmt.Errorf("core: fitting feature scaler: %w", err)
	}
	xPower, err := scaler.Transform(powerDS.X())
	if err != nil {
		return nil, fmt.Errorf("core: scaling features: %w", err)
	}
	xTime, err := scaler.Transform(timeDS.X())
	if err != nil {
		return nil, fmt.Errorf("core: scaling features: %w", err)
	}

	power, err := nn.NewNetwork(arch, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: building power model: %w", err)
	}
	phist, err := power.Fit(xPower, powerDS.YPower(), mkTrainCfg(opts.PowerEpochs, opts.PowerLR))
	if err != nil {
		return nil, fmt.Errorf("core: training power model: %w", err)
	}

	tmodel, err := nn.NewNetwork(arch, opts.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("core: building time model: %w", err)
	}
	thist, err := tmodel.Fit(xTime, timeDS.YSlowdown(), mkTrainCfg(opts.TimeEpochs, opts.TimeLR))
	if err != nil {
		return nil, fmt.Errorf("core: training time model: %w", err)
	}

	return &Models{
		Features:   append([]string(nil), ds.FeatureNames...),
		Scaler:     scaler,
		Power:      power,
		Time:       tmodel,
		PowerHist:  phist,
		TimeHist:   thist,
		TrainedOn:  ds.Arch,
		TDPWatts:   ds.TDPWatts,
		MaxFreqMHz: ds.MaxFreqMHz,
	}, nil
}

// PredictProfile is the online phase: given one profiling run of an
// application at the target's maximum clock, it predicts the application's
// power, execution time, and energy at every frequency in freqs on the
// target architecture.
//
// Normalized targets make the models portable: power comes back as a TDP
// fraction and time as a slowdown, both denormalized against the *target*
// architecture — this is how models trained on GA100 predict for GV100.
//
// PredictProfile routes through a memoized per-target Sweeper, so repeated
// calls amortize the sweep-matrix construction; the outputs are
// bit-identical to the historical build-everything-per-call formulation.
// Callers that need the clamp count or an allocation-free path should use
// NewSweeper / Sweeper.PredictProfileInto directly.
func (m *Models) PredictProfile(target backend.Arch, maxRun dcgm.Run, freqs []float64) ([]objective.Profile, error) {
	sw, err := m.GridSweeperFor(target, freqs, nil)
	if err != nil {
		return nil, err
	}
	out, _, err := sw.PredictProfile(maxRun)
	return out, err
}

// MeasuredProfiles converts measured sweep runs into objective profiles,
// averaging repeated runs at the same frequency — the "M-" side of the
// paper's M-EDP/P-EDP comparison.
func MeasuredProfiles(runs []dcgm.Run) []objective.Profile {
	type acc struct {
		t, p float64
		n    int
	}
	byFreq := map[float64]*acc{}
	var order []float64
	for _, r := range runs {
		a, ok := byFreq[r.FreqMHz]
		if !ok {
			a = &acc{}
			byFreq[r.FreqMHz] = a
			order = append(order, r.FreqMHz)
		}
		a.t += r.ExecTimeSec
		a.p += r.AvgPowerWatts
		a.n++
	}
	out := make([]objective.Profile, 0, len(order))
	for _, f := range order {
		a := byFreq[f]
		out = append(out, objective.Profile{
			FreqMHz:    f,
			TimeSec:    a.t / float64(a.n),
			PowerWatts: a.p / float64(a.n),
		})
	}
	return out
}

// Accuracy is the paper's Table 3 metric pair for one application: power
// and performance prediction accuracy (100 − MAPE) across the DVFS space.
type Accuracy struct {
	Power float64
	Time  float64
}

// EvaluateAccuracy compares predicted profiles against measured ones,
// matching by frequency, and returns Table 3-style accuracies.
func EvaluateAccuracy(predicted, measured []objective.Profile) (Accuracy, error) {
	predByFreq := map[float64]objective.Profile{}
	for _, p := range predicted {
		predByFreq[p.FreqMHz] = p
	}
	var mp, pp, mt, pt []float64
	for _, m := range measured {
		p, ok := predByFreq[m.FreqMHz]
		if !ok {
			continue
		}
		mp = append(mp, m.PowerWatts)
		pp = append(pp, p.PowerWatts)
		mt = append(mt, m.TimeSec)
		pt = append(pt, p.TimeSec)
	}
	if len(mp) == 0 {
		return Accuracy{}, errors.New("core: no overlapping frequencies between predicted and measured profiles")
	}
	pa, err := stats.Accuracy(mp, pp)
	if err != nil {
		return Accuracy{}, err
	}
	ta, err := stats.Accuracy(mt, pt)
	if err != nil {
		return Accuracy{}, err
	}
	return Accuracy{Power: pa, Time: ta}, nil
}

// Save writes both models into dir as power.json and time.json plus a
// manifest carrying the feature layout and normalization context.
func (m *Models) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := m.Power.SaveFile(filepath.Join(dir, "power.json")); err != nil {
		return fmt.Errorf("core: saving power model: %w", err)
	}
	if err := m.Time.SaveFile(filepath.Join(dir, "time.json")); err != nil {
		return fmt.Errorf("core: saving time model: %w", err)
	}
	return saveManifest(filepath.Join(dir, "manifest.json"), m)
}

// LoadModels reads models saved with Save.
func LoadModels(dir string) (*Models, error) {
	m, err := loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	if m.Power, err = nn.LoadFile(filepath.Join(dir, "power.json")); err != nil {
		return nil, fmt.Errorf("core: loading power model: %w", err)
	}
	if m.Time, err = nn.LoadFile(filepath.Join(dir, "time.json")); err != nil {
		return nil, fmt.Errorf("core: loading time model: %w", err)
	}
	return m, nil
}
