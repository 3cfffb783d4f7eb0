package sim

import (
	"fmt"
	"testing"

	"gpudvfs/internal/backend"
)

// testKernel is a DGEMM-shaped kernel with a host-bound share, so its
// telemetry mixes busy and idle samples; computeSec sets its length.
func testKernel(computeSec float64) KernelProfile {
	return KernelProfile{
		Name:           "K",
		ComputeSec:     computeSec,
		MemorySec:      computeSec / 4,
		HostSec:        computeSec / 5,
		FPIntensity:    0.9,
		MemIntensity:   0.6,
		Overlap:        0.9,
		FP64Fraction:   0.9,
		SMActive:       0.95,
		SMOccupancy:    0.6,
		PCIeTxMBps:     900,
		PCIeRxMBps:     300,
		RunVariability: 0.01,
		SizeComputeExp: 1,
		SizeMemoryExp:  1,
	}
}

// TestProfileMatchesProfileStream pins the StreamSampler contract: for
// equal device and sampler seeds, Profile's Run is the run ProfileStream
// returns with the yielded samples attached, bit for bit, across runs that
// share one noise stream. Profile allocates Run.Samples once, at its final
// length.
func TestProfileMatchesProfileStream(t *testing.T) {
	const capN = backend.DefaultMaxSamplesPerRun
	for _, tc := range []struct {
		name       string
		computeSec float64
		maxSamples int
		// ok checks the sample count against the run's interval count.
		ok func(samples, intervals int) bool
	}{
		{"shorter than the cap", 0.5, 0, func(s, n int) bool { return n < capN && s == n }},
		{"strided", 3, 0, func(s, n int) bool { return n > capN && s <= capN && s > capN/2 }},
		{"unlimited", 3, -1, func(s, n int) bool { return n > capN && s == n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := backend.SampleConfig{MaxSamplesPerRun: tc.maxSamples, Seed: 5}
			batchDev, streamDev := New(GA100(), 9), New(GA100(), 9)
			batch := batchDev.NewSampler(cfg)
			stream := streamDev.NewSampler(cfg).(backend.StreamSampler)
			k := testKernel(tc.computeSec)
			for runIndex := 0; runIndex < 3; runIndex++ {
				got, err := batch.Profile(k, runIndex)
				if err != nil {
					t.Fatal(err)
				}
				var samples []backend.Sample
				want, err := stream.ProfileStream(k, runIndex, func(s backend.Sample) { samples = append(samples, s) })
				if err != nil {
					t.Fatal(err)
				}
				if want.Samples != nil {
					t.Fatalf("run %d: ProfileStream returned %d retained samples", runIndex, len(want.Samples))
				}
				want.Samples = samples
				// %#v prints every float in its shortest exact form, so
				// equal strings mean bit-identical fields.
				if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
					t.Fatalf("run %d: Profile and ProfileStream differ:\n%s\n%s", runIndex, g, w)
				}
				if len(got.Samples) != cap(got.Samples) {
					t.Fatalf("run %d: Samples len %d, cap %d", runIndex, len(got.Samples), cap(got.Samples))
				}
				n := int(got.ExecTimeSec / backend.DefaultSampleInterval.Seconds())
				if !tc.ok(len(got.Samples), n) {
					t.Fatalf("run %d: %d samples over %d intervals", runIndex, len(got.Samples), n)
				}
			}
		})
	}
}
