package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gpudvfs/internal/mat"
)

// FuzzLoad hardens the model deserializer: arbitrary bytes must either
// load into a network whose Predict works at the declared input width, or
// return an error — never panic.
func FuzzLoad(f *testing.F) {
	net, _ := NewNetwork(Arch{Inputs: 2, Hidden: []int{4}, Outputs: 1, HiddenAct: "selu", OutputAct: "linear"}, 1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add("")
	f.Add("{}")
	f.Add(`{"format":"gpudvfs-nn/1","layers":[]}`)
	f.Add(strings.Replace(valid, `"selu"`, `"bogus"`, 1))
	f.Add(strings.Replace(valid, `"in":2`, `"in":-1`, 1))
	f.Add(strings.Replace(valid, `"out":4`, `"out":9999999`, 1))

	f.Fuzz(func(t *testing.T, input string) {
		loaded, err := Load(strings.NewReader(input))
		if err != nil {
			return
		}
		in := loaded.Layers[0].In
		if in <= 0 || in > 1<<16 {
			// Degenerate but parseable widths: just don't predict.
			return
		}
		row := make([]float64, in)
		if _, err := loaded.Predict([][]float64{row}); err != nil {
			t.Fatalf("loaded model cannot predict: %v", err)
		}
	})
}

// FuzzPredictorMatchesNaive is the Predictor's differential fuzzer: for
// every activation, layer widths that are not multiples of the kernel's
// 4-wide tile, batches from 1 to 256 rows (both sides of 64×64 output
// elements) and inputs with exact zeros, Predict and PredictMatInto must
// equal naivePredict bit for bit.
func FuzzPredictorMatchesNaive(f *testing.F) {
	for i := range ActivationNames() {
		f.Add(uint8(i), uint8(i+3), uint8(5), uint8(7), uint8(61), uint8(3), int64(i))
	}
	f.Add(uint8(0), uint8(0), uint8(3), uint8(63), uint8(100), uint8(2), int64(9))
	f.Add(uint8(7), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), int64(10))

	names := ActivationNames()
	f.Fuzz(func(t *testing.T, hidAct, outAct, inputs, width, batch, zeroEvery uint8, seed int64) {
		arch := Arch{
			Inputs:    1 + int(inputs)%8,
			Hidden:    []int{1 + int(width)%70, 1 + int(width/2)%13},
			Outputs:   1 + int(outAct/16)%3,
			HiddenAct: names[int(hidAct)%len(names)],
			OutputAct: names[int(outAct)%len(names)],
		}
		net, err := NewNetwork(arch, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		rows := randRows(rng, 1+int(batch), arch.Inputs)
		for i, row := range rows {
			for j := range row {
				if zeroEvery > 0 && (i*len(row)+j)%int(zeroEvery) == 0 {
					row[j] = 0
				}
			}
		}
		want := naivePredict(net, rows)
		got, err := net.Predict(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("arch=%+v batch=%d: Predict differs from the naive oracle", arch, len(rows))
		}
		x, err := mat.NewFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		dm := mat.New(len(rows), arch.Outputs)
		if err := net.Predictor().PredictMatInto(dm, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j, w := range want[i] {
				if math.Float64bits(dm.At(i, j)) != math.Float64bits(w) {
					t.Fatalf("arch=%+v batch=%d: PredictMatInto differs at (%d,%d)", arch, len(rows), i, j)
				}
			}
		}
	})
}
