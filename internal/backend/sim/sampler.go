package sim

import (
	"math"
	"math/rand"

	"gpudvfs/internal/backend"
	"gpudvfs/internal/gpusim"
)

// Sampling noise sigmas for telemetry: activities jitter more than the
// power sensor.
const (
	activityNoise = 0.04
	powerNoise    = 0.02
	clockNoise    = 0.002
)

// idleActivityFloor is the residual activity telemetry reports during
// host-bound intervals (driver housekeeping keeps counters slightly warm).
const idleActivityFloor = 0.01

// sampler is the profile module over the simulator: it executes a kernel
// at the device's current clock and samples its telemetry with one seeded
// noise stream per sampler, so a profiling campaign driven through one
// sampler reproduces exactly for equal seeds.
type sampler struct {
	dev *gpusim.Device
	cfg backend.SampleConfig
	rng *rand.Rand
}

func newSampler(dev *gpusim.Device, cfg backend.SampleConfig) *sampler {
	return &sampler{
		dev: dev,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Profile executes w once at the current clock and samples its telemetry.
// It is the batch view of ProfileStream: the samples the stream's loop
// yields are collected into Run.Samples, so the two forms are
// byte-identical for equal sampler state. The sample count is fixed once
// the run has executed, so Run.Samples is allocated once, at its final
// length.
func (c *sampler) Profile(w backend.Workload, runIndex int) (backend.Run, error) {
	e, err := c.execute(w, runIndex)
	if err != nil {
		return backend.Run{}, err
	}
	samples := make([]backend.Sample, 0, e.samples())
	c.emit(&e, func(s backend.Sample) { samples = append(samples, s) })
	e.run.Samples = samples
	return e.run, nil
}

// ProfileStream executes w once at the current clock and yields its
// telemetry sample by sample. Noise draws happen whether or not yield is
// nil, so a stream that discards samples leaves the noise schedule
// identical to one that keeps them.
func (c *sampler) ProfileStream(w backend.Workload, runIndex int, yield func(backend.Sample)) (backend.Run, error) {
	e, err := c.execute(w, runIndex)
	if err != nil {
		return backend.Run{}, err
	}
	c.emit(&e, yield)
	return e.run, nil
}

// execution is one executed run and its sampling schedule: n 20 ms
// intervals, one sample every stride of them.
type execution struct {
	run       backend.Run
	exec      Execution
	k         KernelProfile
	n, stride int
}

// samples is the number of samples emit yields.
func (e *execution) samples() int { return (e.n + e.stride - 1) / e.stride }

// execute runs w once at the device's current clocks and fixes its
// sampling schedule; it draws nothing from the telemetry noise stream.
func (c *sampler) execute(w backend.Workload, runIndex int) (execution, error) {
	raw, err := asKernelProfile(w)
	if err != nil {
		return execution{}, err
	}
	k, err := raw.WithInputScale(c.cfg.InputScale)
	if err != nil {
		return execution{}, err
	}
	exec, err := c.dev.Execute(k)
	if err != nil {
		return execution{}, err
	}
	// An off-default memory P-state is reported as a constant — P-state
	// clocks do not wobble like boost clocks — so recording it draws
	// nothing from the noise stream and leaves default-state telemetry
	// bit-identical to the pre-memory-axis sampler.
	memMHz := 0.0
	if mc := c.dev.MemClock(); mc != c.dev.Arch().MemClocks()[0] {
		memMHz = mc
	}
	n := int(exec.TimeSec / c.cfg.Interval.Seconds())
	if n < 1 {
		n = 1
	}
	stride := 1
	if c.cfg.MaxSamplesPerRun > 0 && n > c.cfg.MaxSamplesPerRun {
		stride = (n + c.cfg.MaxSamplesPerRun - 1) / c.cfg.MaxSamplesPerRun
	}
	return execution{
		run: backend.Run{
			Workload:      exec.Workload,
			Arch:          exec.Arch,
			FreqMHz:       exec.FreqMHz,
			MemFreqMHz:    memMHz,
			RunIndex:      runIndex,
			ExecTimeSec:   exec.TimeSec,
			AvgPowerWatts: exec.AvgPowerWatts,
			EnergyJoules:  exec.EnergyJoules,
		},
		exec:   exec,
		k:      k,
		n:      n,
		stride: stride,
	}, nil
}

// emit samples an executed run's telemetry, invoking yield (nil discards)
// for each sample. Sampling is phase resolved, as real 20 ms DCGM
// telemetry is: intervals that land on GPU-busy stretches report the
// undiluted kernel activities and the active power draw, intervals on
// host-bound stretches report a near-idle GPU. Phases are interleaved with
// Bresenham accumulation so the sample mix matches the run's busy fraction
// exactly; the mean over samples therefore reproduces the whole-run
// averages.
func (c *sampler) emit(e *execution, yield func(backend.Sample)) {
	exec, k, memMHz := &e.exec, &e.k, e.run.MemFreqMHz
	interval := c.cfg.Interval.Seconds()
	st := exec.Steady
	// Power ripple scales active power so that run-average power stays
	// consistent with the executed run.
	powerScale := exec.AvgPowerWatts / st.PowerWatts
	phase := 0.5 // Bresenham accumulator; 0.5 centers the pattern
	for i := 0; i < e.n; i += e.stride {
		t := float64(i) * interval
		// Each emitted sample stands for one 20 ms interval; accumulate
		// the busy fraction once per sample so the active share of the
		// emitted samples matches GPUBusyFrac regardless of stride.
		phase += st.GPUBusyFrac
		active := phase >= 1
		if active {
			phase -= math.Floor(phase)
		}
		var s backend.Sample
		if active {
			s = backend.Sample{
				TimeSec:        t,
				FP64Active:     c.noisyAct(st.ActiveFP64Active),
				FP32Active:     c.noisyAct(st.ActiveFP32Active),
				SMAppClockMHz:  exec.FreqMHz * c.factor(clockNoise),
				DRAMActive:     c.noisyAct(st.ActiveDRAMActive),
				GrEngineActive: c.noisyAct(1),
				GPUUtilization: c.noisyAct(1),
				PowerUsage:     st.ActivePowerWatts * powerScale * c.factor(powerNoise),
				SMActive:       c.noisyAct(st.ActiveSMActive),
				SMOccupancy:    c.noisyAct(st.ActiveSMOcc),
				PCIeTxMBps:     k.PCIeTxMBps * c.factor(activityNoise),
				PCIeRxMBps:     k.PCIeRxMBps * c.factor(activityNoise),
				MemClockMHz:    memMHz,
			}
		} else {
			s = backend.Sample{
				TimeSec:        t,
				FP64Active:     c.idleAct(),
				FP32Active:     c.idleAct(),
				SMAppClockMHz:  exec.FreqMHz * c.factor(clockNoise),
				DRAMActive:     c.idleAct(),
				GrEngineActive: c.idleAct(),
				GPUUtilization: c.idleAct(),
				PowerUsage:     st.IdlePowerWatts * powerScale * c.factor(powerNoise),
				SMActive:       c.idleAct(),
				SMOccupancy:    c.idleAct(),
				PCIeTxMBps:     k.PCIeTxMBps * c.factor(activityNoise),
				PCIeRxMBps:     k.PCIeRxMBps * c.factor(activityNoise),
				MemClockMHz:    memMHz,
			}
		}
		if yield != nil {
			yield(s)
		}
	}
}

func (c *sampler) idleAct() float64 {
	return idleActivityFloor * math.Abs(c.rng.NormFloat64())
}

func (c *sampler) factor(sigma float64) float64 {
	return math.Exp(c.rng.NormFloat64()*sigma - sigma*sigma/2)
}

func (c *sampler) noisyAct(v float64) float64 {
	out := v * c.factor(activityNoise)
	if out < 0 {
		return 0
	}
	if out > 1 {
		return 1
	}
	return out
}
