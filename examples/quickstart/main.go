// Quickstart: the paper's complete workflow in one file.
//
// It trains the DNN power and performance models on the benchmark suite
// (offline phase), profiles an unseen application once at the maximum
// clock (online phase), predicts its power/time/energy across all 61 DVFS
// configurations of the A100, and selects the energy-optimal frequency
// with the ED²P objective.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

func main() {
	// --- Offline phase: collect benchmark telemetry and train models. ---
	arch := sim.GA100()
	trainDev := sim.New(arch, 42)
	fmt.Printf("offline phase: collecting %d training workloads across %d DVFS configs on %s...\n",
		len(workloads.TrainingSet()), len(arch.DesignClocks()), arch.Name)

	offline, err := core.OfflineTrain(trainDev, backend.Workloads(workloads.TrainingSet()),
		dcgm.Config{Seed: 1}, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d points; final val MSE: power %.5f, time %.5f\n\n",
		len(offline.Dataset.Points),
		lastOf(offline.Models.PowerHist.ValLoss), lastOf(offline.Models.TimeHist.ValLoss))

	// --- Online phase: one profiling run of an unseen application. ---
	app := workloads.LAMMPS()
	appDev := sim.New(arch, 7)
	online, err := core.OnlinePredict(appDev, offline.Models, app, dcgm.Config{Seed: 8}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online phase: profiled %s once at %.0f MHz (%.2f s, %.0f W)\n",
		app.Name, online.ProfileRun.FreqMHz, online.ProfileRun.ExecTimeSec, online.ProfileRun.AvgPowerWatts)

	// --- Selection: minimize ED²P over the predicted profiles. ---
	sel, err := core.SelectFrequency(online.Predicted, objective.ED2P{}, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nED2P-optimal frequency for %s: %.0f MHz\n", app.Name, sel.FreqMHz)
	fmt.Printf("predicted vs running at the default %.0f MHz: energy %+.1f%%, time %+.1f%%\n",
		arch.MaxFreqMHz, sel.EnergyPct, sel.TimePct)

	// Sanity-check the choice against measured data.
	coll := dcgm.NewCollector(sim.New(arch, 9), dcgm.Config{Seed: 10})
	runs, err := coll.CollectWorkload(app)
	if err != nil {
		log.Fatal(err)
	}
	measured := core.MeasuredProfiles(runs)
	for _, m := range measured {
		if m.FreqMHz == sel.FreqMHz {
			to, err := objective.Evaluate(measured, m)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("measured at that frequency:  energy %+.1f%%, time %+.1f%%\n", to.EnergyPct, to.TimePct)
		}
	}
}

func lastOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}
