// Runtime governor: the extension beyond the paper's one-shot online
// phase. A governed device runs a workload stream whose character changes
// mid-way (a molecular-dynamics phase hands over to a memory-bound
// analysis phase). The governor's streaming loop notices the feature
// drift against its profiling baseline and re-runs the online phase,
// landing on the new phase's optimal frequency — while an input-size
// change alone (which the paper shows does not move the features)
// triggers nothing.
//
// Run with: go run ./examples/governor
package main

import (
	"context"
	"fmt"
	"log"

	"gpudvfs/internal/backend"
	sim "gpudvfs/internal/backend/sim"
	"gpudvfs/internal/core"
	"gpudvfs/internal/dcgm"
	"gpudvfs/internal/governor"
	"gpudvfs/internal/workloads"
)

func main() {
	arch := sim.GA100()
	fmt.Println("training models on the benchmark suite...")
	offline, err := core.OfflineTrain(sim.New(arch, 42), backend.Workloads(workloads.TrainingSet()),
		dcgm.Config{Seed: 1}, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}

	dev := sim.New(arch, 7)
	cfg := governor.DefaultConfig()
	cfg.ReprofileAfter = 2
	gov, err := governor.New(dev, offline.Models, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A stream of production runs: 4 compute-bound MD runs, then the same
	// MD at 2x the problem size (not drift!), then a memory-bound
	// post-processing phase (drift).
	md := workloads.LAMMPS()
	mdBig, err := md.WithInputScale(2)
	if err != nil {
		log.Fatal(err)
	}
	post := workloads.STREAM()
	stream := []struct {
		label string
		app   sim.KernelProfile
	}{
		{"MD", md}, {"MD", md}, {"MD", md}, {"MD", md},
		{"MD(2x input)", mdBig}, {"MD(2x input)", mdBig},
		{"post-proc", post}, {"post-proc", post}, {"post-proc", post}, {"post-proc", post},
	}

	sel, err := gov.Tune(md)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninitial tune for MD: %.0f MHz (predicted energy %+.1f%%, time %+.1f%%)\n\n",
		sel.FreqMHz, sel.EnergyPct, sel.TimePct)

	// Run consumes a workload stream; feeding it one item at a time shows
	// each item's outcome, and the governor's state carries over between
	// calls. A retune's profiling run executes the item at the maximum
	// clock, so the item after the drift hysteresis completes is the one
	// that re-profiles.
	fmt.Printf("%-14s %10s %10s %8s %8s\n", "run", "freq_mhz", "time_s", "drift", "retune")
	ctx := context.Background()
	for _, step := range stream {
		rep, err := gov.Run(ctx, workloads.NewSequence(step.app))
		if err != nil {
			log.Fatal(err)
		}
		freq := gov.Selection().FreqMHz
		if rep.TunedRuns > 0 {
			freq = arch.MaxFreqMHz
		}
		fmt.Printf("%-14s %10.0f %10.2f %8v %8v\n", step.label, freq, rep.TimeSeconds, rep.DriftedRuns > 0, rep.Retunes > 0)
	}

	st := gov.Stats()
	fmt.Printf("\ngovernor stats: %d governed runs, %d drifted, %d re-tunes (of %d tunes total)\n",
		st.Runs, st.DriftedRuns, st.Retunes, st.Tunes)
	fmt.Printf("final frequency: %.0f MHz\n", gov.Selection().FreqMHz)
	fmt.Println("\nthe input-size change did not re-tune (features are size-invariant, §4.2.3);")
	fmt.Println("the character change did, landing on the memory-bound phase's optimum.")
}
