package core_test

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

// The paper's two-phase workflow end to end. (Compile-checked only — the
// offline phase trains two networks, which is too slow for an executed
// documentation example; run examples/quickstart for the live version.)
func Example() {
	arch := sim.GA100()

	// Offline: collect the benchmark suite across the DVFS space and
	// train the power and time models.
	offline, err := core.OfflineTrain(sim.New(arch, 42),
		backend.Workloads(workloads.TrainingSet()), dcgm.Config{Seed: 1}, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Online: one profiling run of an unseen application at the maximum
	// clock seeds predictions across all 61 configurations.
	online, err := core.OnlinePredict(sim.New(arch, 7),
		offline.Models, workloads.BERT(), dcgm.Config{Seed: 8}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Select the ED²P-optimal frequency, unconstrained.
	sel, err := core.SelectFrequency(online.Predicted, objective.ED2P{}, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run BERT at %.0f MHz (predicted energy %+.1f%%, time %+.1f%%)\n",
		sel.FreqMHz, sel.EnergyPct, sel.TimePct)
}
