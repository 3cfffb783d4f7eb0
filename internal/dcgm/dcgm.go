// Package dcgm reimplements the paper's transparent data-collection
// framework (§4.1) against a pluggable device backend. Like the original,
// it is split into three modules:
//
//   - the launch module (Collector) orchestrates collection: which DVFS
//     configurations, how many runs, the sampling interval, and where
//     results go;
//   - the control module (Controller) pins the GPU core clock;
//   - the profile module runs the application and samples the 12 GPU
//     utilization metrics throughout its execution at a fixed interval
//     (20 ms by default, the interval the paper uses to obtain a
//     statistically significant dataset from short-running workloads).
//
// The profile module lives behind the backend.Sampler interface: the
// simulator's noisy telemetry, a replayed recording, or (one day) real
// DCGM all serve it identically. Output is written in
// comma-separated-values form, one row per sample, mirroring the original
// framework's CSV files.
package dcgm

import (
	"fmt"
	"time"

	"gpudvfs/internal/backend"
)

// DefaultSampleInterval is the paper's 20 ms metric sampling interval.
const DefaultSampleInterval = backend.DefaultSampleInterval

// DefaultMaxSamplesPerRun caps how many telemetry samples one run
// contributes, bounding dataset size for long workloads.
const DefaultMaxSamplesPerRun = backend.DefaultMaxSamplesPerRun

// Sample is one telemetry interval: the 11 instantaneous utilization
// metrics of §4.1 (the twelfth metric, exec_time, is a run-level value on
// Run).
type Sample = backend.Sample

// Run is one profiled execution: identity, run-level outcomes, and the
// sampled telemetry.
type Run = backend.Run

// Controller is the control module: it pins and restores the device clock.
type Controller struct {
	dev backend.Device
}

// NewController returns a controller for dev.
func NewController(dev backend.Device) *Controller { return &Controller{dev: dev} }

// Apply pins the core clock to freqMHz.
func (c *Controller) Apply(freqMHz float64) error { return c.dev.SetClock(freqMHz) }

// Restore returns the device to its default clock.
func (c *Controller) Restore() { c.dev.ResetClock() }

// ApplyMem pins the memory clock to memMHz (one of the architecture's
// memory P-states) — the "and memory" half of the paper's §4.1 claim that
// the framework controls the GPU cores and memory.
func (c *Controller) ApplyMem(memMHz float64) error { return c.dev.SetMemClock(memMHz) }

// RestoreMem returns the device to its default memory P-state.
func (c *Controller) RestoreMem() { c.dev.ResetMemClock() }

// Config parameterizes a collection campaign (the launch module's inputs:
// DVFS configurations, number of runs, sampling interval).
type Config struct {
	Freqs            []float64     // DVFS configurations to sweep; nil means the device's full design space
	MemFreqs         []float64     // memory P-states to sweep; nil means the default state only (no memory control at all)
	Runs             int           // runs per configuration; 0 means the paper's 3
	SampleInterval   time.Duration // 0 means DefaultSampleInterval
	MaxSamplesPerRun int           // 0 means DefaultMaxSamplesPerRun; <0 means unlimited
	InputScale       float64       // problem-size factor; 0 means 1
	Seed             int64         // telemetry sampling noise seed
}

// withDefaults fills every zero field but Freqs: a nil Freqs stays nil and
// CollectWorkload resolves it, so the per-request single runs (ProfileAtMax,
// Stream), which never sweep, do not build the design-clock list.
func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = DefaultSampleInterval
	}
	if c.MaxSamplesPerRun == 0 {
		c.MaxSamplesPerRun = DefaultMaxSamplesPerRun
	}
	if c.InputScale == 0 {
		c.InputScale = 1
	}
	return c
}

// sampleConfig is the per-run sampling subset of the campaign config.
func (c Config) sampleConfig() backend.SampleConfig {
	return backend.SampleConfig{
		Interval:         c.SampleInterval,
		MaxSamplesPerRun: c.MaxSamplesPerRun,
		InputScale:       c.InputScale,
		Seed:             c.Seed,
	}
}

// Collector is the launch module: it orchestrates clock control, workload
// execution, and telemetry sampling across a campaign.
type Collector struct {
	dev  backend.Device
	ctrl *Controller
	cfg  Config
	smp  backend.Sampler
}

// NewCollector returns a collector over dev with the given campaign
// configuration.
func NewCollector(dev backend.Device, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		dev:  dev,
		ctrl: NewController(dev),
		cfg:  cfg,
		smp:  dev.NewSampler(cfg.sampleConfig()),
	}
}

// CollectWorkload sweeps the configured DVFS configurations for one
// workload, running it cfg.Runs times at each, and returns every run. With
// MemFreqs set, the sweep covers the (mem × core) grid, memory-outer (one
// memory P-state transition per core sweep, matching how slow memory
// retraining is on real hardware); without it, the campaign performs no
// memory-clock control at all, preserving the historical 1-D behaviour
// exactly. The device clocks are restored afterwards.
func (c *Collector) CollectWorkload(k backend.Workload) ([]Run, error) {
	defer c.ctrl.Restore()
	freqs := c.cfg.Freqs
	if freqs == nil {
		freqs = c.dev.Arch().DesignClocks()
	}
	if c.cfg.MemFreqs == nil {
		return c.collectCoreSweep(k, freqs)
	}
	defer c.ctrl.RestoreMem()
	runs := make([]Run, 0, len(c.cfg.MemFreqs)*len(freqs)*c.cfg.Runs)
	for _, m := range c.cfg.MemFreqs {
		if err := c.ctrl.ApplyMem(m); err != nil {
			return nil, fmt.Errorf("dcgm: applying memory clock %v MHz for %s: %w", m, k.WorkloadName(), err)
		}
		sweep, err := c.collectCoreSweep(k, freqs)
		if err != nil {
			return nil, err
		}
		runs = append(runs, sweep...)
	}
	return runs, nil
}

// collectCoreSweep sweeps the core clocks freqs at the device's current
// memory state.
func (c *Collector) collectCoreSweep(k backend.Workload, freqs []float64) ([]Run, error) {
	runs := make([]Run, 0, len(freqs)*c.cfg.Runs)
	for _, f := range freqs {
		if err := c.ctrl.Apply(f); err != nil {
			return nil, fmt.Errorf("dcgm: applying %v MHz for %s: %w", f, k.WorkloadName(), err)
		}
		for r := 0; r < c.cfg.Runs; r++ {
			run, err := c.smp.Profile(k, r)
			if err != nil {
				return nil, fmt.Errorf("dcgm: profiling %s at %v MHz: %w", k.WorkloadName(), f, err)
			}
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// CollectAll runs CollectWorkload for each workload and concatenates the
// results.
func (c *Collector) CollectAll(ks []backend.Workload) ([]Run, error) {
	var all []Run
	for _, k := range ks {
		runs, err := c.CollectWorkload(k)
		if err != nil {
			return nil, err
		}
		all = append(all, runs...)
	}
	return all, nil
}

// ProfileAtMax profiles one workload at the maximum core clock and the
// default memory P-state only — the online-phase acquisition step (§4): a
// single run whose features seed prediction across the whole design
// space, including the memory axis (candidate memory clocks are swapped
// into the feature vector the same way core clocks are). The memory reset
// draws nothing from any noise stream, so campaigns that never pin the
// memory clock are unaffected.
func (c *Collector) ProfileAtMax(k backend.Workload) (Run, error) {
	defer c.ctrl.Restore()
	c.ctrl.RestoreMem()
	if err := c.ctrl.Apply(c.dev.Arch().MaxFreqMHz); err != nil {
		return Run{}, err
	}
	return c.smp.Profile(k, 0)
}
