// Threshold explorer (paper §5.3 and Table 6): how the objective function
// and the performance-degradation threshold shape the energy/performance
// trade-off for one application.
//
// For the chosen application it sweeps EDP and ED²P, each under a range of
// thresholds, selecting from *predicted* profiles and scoring each choice
// on *measured* data — the situation a real deployment faces.
//
// Run with: go run ./examples/threshold [app]
package main

import (
	"fmt"
	"log"
	"os"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/objective"
	"gpudvfs/internal/workloads"
)

func main() {
	appName := "ResNet50" // the paper's highest-penalty outlier
	if len(os.Args) > 1 {
		appName = os.Args[1]
	}
	app, err := workloads.ByName(appName)
	if err != nil {
		log.Fatal(err)
	}
	arch := sim.GA100()

	fmt.Println("training models on the benchmark suite...")
	offline, err := core.OfflineTrain(sim.New(arch, 42), backend.Workloads(workloads.TrainingSet()),
		dcgm.Config{Seed: 1}, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}

	online, err := core.OnlinePredict(sim.New(arch, 7), offline.Models, app, dcgm.Config{Seed: 8}, nil)
	if err != nil {
		log.Fatal(err)
	}
	coll := dcgm.NewCollector(sim.New(arch, 9), dcgm.Config{Seed: 10})
	runs, err := coll.CollectWorkload(app)
	if err != nil {
		log.Fatal(err)
	}
	measured := core.MeasuredProfiles(runs)
	measAt := map[float64]objective.Profile{}
	for _, m := range measured {
		measAt[m.FreqMHz] = m
	}

	fmt.Printf("\napplication: %s on %s\n", app.Name, arch.Name)
	fmt.Printf("%-6s %-10s %10s %14s %14s\n", "obj", "threshold", "freq_mhz", "meas_energy", "meas_time")
	thresholds := []float64{-1, 0.20, 0.10, 0.05, 0.02, 0.01}
	for _, obj := range []objective.Objective{objective.EDP{}, objective.ED2P{}} {
		for _, th := range thresholds {
			sel, err := core.SelectFrequency(online.Predicted, obj, th)
			if err != nil {
				log.Fatal(err)
			}
			m, ok := measAt[sel.FreqMHz]
			if !ok {
				log.Fatalf("no measured profile at %v MHz", sel.FreqMHz)
			}
			to, err := objective.Evaluate(measured, m)
			if err != nil {
				log.Fatal(err)
			}
			label := "none"
			if th >= 0 {
				label = fmt.Sprintf("%.0f%%", th*100)
			}
			fmt.Printf("%-6s %-10s %10.0f %+13.1f%% %+13.1f%%\n",
				obj.Name(), label, sel.FreqMHz, to.EnergyPct, to.TimePct)
		}
	}
	fmt.Println("\nnegative meas_time is a performance loss; tightening the threshold trades")
	fmt.Println("energy savings for bounded slowdown, reproducing the paper's Table 6 behaviour.")
}
