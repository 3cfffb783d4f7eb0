// Command dvfs-predict is the online phase (§4.4): it profiles an
// application once at the maximum clock, predicts its power, execution
// time, and energy across the whole DVFS design space with the trained
// models, and selects the optimal frequency under EDP or ED²P — optionally
// constrained by a performance-degradation threshold.
//
// Examples:
//
//	dvfs-predict -models models/ -arch GA100 -app LAMMPS
//	dvfs-predict -models models/ -arch GV100 -app BERT -objective ED2P
//	dvfs-predict -models models/ -app ResNet50 -objective EDP -threshold 0.05
package main

import (
	"flag"
	"fmt"
	"os"

	"gpudvfs/internal/backend/open"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

func main() {
	var (
		modelsDir   = flag.String("models", "models", "directory with models saved by dvfs-train")
		backendName = flag.String("backend", "sim", "device backend: sim or replay")
		archName    = flag.String("arch", "GA100", "target GPU architecture (sim backend)")
		trace       = flag.String("trace", "", "CSV recording with a max-clock profile of the app (replay backend)")
		compression = flag.Float64("time-compression", 0, "replay pacing: recorded-time divisor (0 = serve instantly)")
		app         = flag.String("app", "", "application to predict (see -list)")
		memFreqs    = flag.String("mem-freqs", "", `memory P-states to sweep alongside core clocks: "all", or a comma-separated MHz list; empty sweeps the core axis only`)
		objName     = flag.String("objective", "ED2P", "multi-objective function: EDP or ED2P")
		threshold   = flag.Float64("threshold", -1, "performance-degradation threshold (fraction, e.g. 0.05); negative disables")
		seed        = flag.Int64("seed", 7, "simulation noise seed for the profiling run")
		list        = flag.Bool("list", false, "list available applications and exit")
		verbose     = flag.Bool("v", false, "print the full predicted profile")
	)
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}
	cfg := open.Config{Backend: *backendName, Arch: *archName, Seed: *seed, Trace: *trace, TimeCompression: *compression}
	if err := run(*modelsDir, cfg, *app, *memFreqs, *objName, *threshold, *seed, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "dvfs-predict:", err)
		os.Exit(1)
	}
}

func run(modelsDir string, devCfg open.Config, app, memSpec, objName string, threshold float64, seed int64, verbose bool) error {
	if app == "" {
		return fmt.Errorf("-app is required (try -list)")
	}
	w, err := workloads.ByName(app)
	if err != nil {
		return err
	}
	obj, err := objective.ByName(objName)
	if err != nil {
		return err
	}
	models, err := core.LoadModels(modelsDir)
	if err != nil {
		return err
	}

	dev, err := open.Device(devCfg)
	if err != nil {
		return err
	}
	mems, err := open.ParseMemFreqs(memSpec, dev.Arch())
	if err != nil {
		return err
	}
	res, err := core.OnlinePredict(dev, models, w, dcgm.Config{Seed: seed + 1}, mems)
	if err != nil {
		return err
	}
	fmt.Printf("profiled %s once at %v MHz on %s: exec %.3f s, avg power %.1f W\n",
		app, res.ProfileRun.FreqMHz, dev.Arch().Name, res.ProfileRun.ExecTimeSec, res.ProfileRun.AvgPowerWatts)

	if verbose {
		if mems != nil {
			fmt.Printf("%10s %10s %10s %10s %12s %12s\n", "freq_mhz", "mem_mhz", "power_w", "time_s", "energy_j", obj.Name())
			for _, p := range res.Predicted {
				fmt.Printf("%10.0f %10.0f %10.1f %10.3f %12.1f %12.1f\n",
					p.FreqMHz, p.MemFreqMHz, p.PowerWatts, p.TimeSec, p.Energy(), obj.Score(p.Energy(), p.TimeSec))
			}
		} else {
			fmt.Printf("%10s %10s %10s %12s %12s\n", "freq_mhz", "power_w", "time_s", "energy_j", obj.Name())
			for _, p := range res.Predicted {
				fmt.Printf("%10.0f %10.1f %10.3f %12.1f %12.1f\n",
					p.FreqMHz, p.PowerWatts, p.TimeSec, p.Energy(), obj.Score(p.Energy(), p.TimeSec))
			}
		}
	}
	if res.ClampedMem > 0 {
		fmt.Printf("warning: %d memory-axis predictions hit the safety floors (%d total); the models look untrained along the memory axis\n",
			res.ClampedMem, res.Clamped)
	}

	sel, err := core.SelectFrequency(res.Predicted, obj, threshold)
	if err != nil {
		return err
	}
	fmt.Printf("optimal frequency (%s", sel.Objective)
	if threshold >= 0 {
		fmt.Printf(", threshold %.0f%%", threshold*100)
	}
	fmt.Printf("): %.0f MHz", sel.FreqMHz)
	if sel.MemFreqMHz != 0 {
		fmt.Printf(" @ mem %.0f MHz", sel.MemFreqMHz)
	}
	fmt.Println()
	fmt.Printf("predicted vs max clock: energy %+.1f%%, time %+.1f%%\n", sel.EnergyPct, sel.TimePct)
	return nil
}
