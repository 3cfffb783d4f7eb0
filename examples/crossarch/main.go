// Cross-architecture portability (paper §4.2.4 and Table 3): models
// trained exclusively on GA100 (A100/Ampere) telemetry predict power and
// execution time on GV100 (V100/Volta) — a GPU with half the TDP, a
// different frequency range, and a different DVFS step — without any
// retraining.
//
// The normalized formulation makes this work: the power model predicts
// fractions of TDP and the time model predicts slowdowns relative to the
// maximum clock, so the same network denormalizes against whichever
// architecture it is asked about.
//
// Run with: go run ./examples/crossarch
package main

import (
	"fmt"
	"log"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/workloads"
)

func main() {
	ga, gv := sim.GA100(), sim.GV100()

	fmt.Printf("training on %s only (%d DVFS configs)...\n", ga.Name, len(ga.DesignClocks()))
	offline, err := core.OfflineTrain(sim.New(ga, 42), backend.Workloads(workloads.TrainingSet()),
		dcgm.Config{Seed: 1}, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("evaluating the same models on both architectures:\n\n")
	fmt.Printf("%-7s %-10s %12s %12s\n", "gpu", "app", "power_acc", "time_acc")
	for _, arch := range []sim.Arch{ga, gv} {
		var sumP, sumT float64
		apps := workloads.RealApps()
		for i, app := range apps {
			seed := int64(1000 + i)
			if arch.Name == "GV100" {
				seed += 500
			}
			// Measured ground truth: a full sweep on this architecture.
			coll := dcgm.NewCollector(sim.New(arch, seed), dcgm.Config{Seed: seed + 1})
			runs, err := coll.CollectWorkload(app)
			if err != nil {
				log.Fatal(err)
			}
			measured := core.MeasuredProfiles(runs)

			// Online phase on this architecture with the GA100 models.
			online, err := core.OnlinePredict(sim.New(arch, seed+2), offline.Models, app,
				dcgm.Config{Seed: seed + 3}, nil)
			if err != nil {
				log.Fatal(err)
			}
			acc, err := core.EvaluateAccuracy(online.Predicted, measured)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-7s %-10s %11.1f%% %11.1f%%\n", arch.Name, app.Name, acc.Power, acc.Time)
			sumP += acc.Power
			sumT += acc.Time
		}
		n := float64(len(apps))
		fmt.Printf("%-7s %-10s %11.1f%% %11.1f%%\n\n", arch.Name, "AVERAGE", sumP/n, sumT/n)
	}
	fmt.Println("the GV100 rows used zero GV100 training data — only one profiling run per app.")
}
