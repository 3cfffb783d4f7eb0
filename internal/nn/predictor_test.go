package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gpudvfs/internal/mat"
)

// naivePredict is the inference oracle: y = act(x·Wᵀ + b) evaluated one
// row and one output at a time with plain loops. Each output sums the
// products a[k]·W[j][k] over ascending k, skipping zero a[k] as every mat
// kernel does, then adds b[j] and applies the activation. The Predictor
// must match it bit for bit.
func naivePredict(n *Network, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for r, a := range rows {
		for _, l := range n.Layers {
			z := make([]float64, l.Out)
			for j := range z {
				var s float64
				for k, av := range a {
					if av == 0 {
						continue
					}
					s += av * l.W.At(j, k)
				}
				z[j] = l.Act.Func(s + l.B[j])
			}
			a = z
		}
		out[r] = a
	}
	return out
}

func randRows(rng *rand.Rand, n, cols int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, cols)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestPredictorBitIdenticalToOracle pins the serving contract: the pooled
// Predict, PredictInto, and PredictMatInto paths are bit-identical to the
// naive per-row oracle — across batch sizes from one row to past the
// paper's 61-point sweep, multi-output networks, and repeated calls on a
// warm pool.
func TestPredictorBitIdenticalToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	archs := []Arch{
		PaperArch(3),
		{Inputs: 5, Hidden: []int{16, 8}, Outputs: 3, HiddenAct: "relu", OutputAct: "linear"},
	}
	for _, arch := range archs {
		net, err := NewNetwork(arch, 99)
		if err != nil {
			t.Fatal(err)
		}
		p := net.Predictor()
		// 61 rows is the paper's sweep; 200 outgrows the 2-D grid's 183.
		for _, batch := range []int{1, 7, 61, 200} {
			rows := randRows(rng, batch, arch.Inputs)
			want := naivePredict(net, rows)
			for rep := 0; rep < 3; rep++ { // warm pool must not drift
				got, err := net.Predict(rows)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("arch=%v batch=%d rep=%d: Predict differs from oracle", arch, batch, rep)
				}
				dst := randRows(rng, batch, arch.Outputs) // poison, must be overwritten
				if err := p.PredictInto(dst, rows); err != nil {
					t.Fatal(err)
				}
				if !sameBits(dst, want) {
					t.Fatalf("arch=%v batch=%d rep=%d: PredictInto differs from oracle", arch, batch, rep)
				}
				x, err := mat.NewFromRows(rows)
				if err != nil {
					t.Fatal(err)
				}
				dm := mat.New(batch, arch.Outputs)
				if err := p.PredictMatInto(dm, x); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < batch; i++ {
					for j := 0; j < arch.Outputs; j++ {
						if math.Float64bits(dm.At(i, j)) != math.Float64bits(want[i][j]) {
							t.Fatalf("arch=%v batch=%d: PredictMatInto differs at (%d,%d)", arch, batch, i, j)
						}
					}
				}
			}
		}
	}
}

// TestPredictorConcurrentHammer drives one shared Predictor from many
// goroutines (run under -race by make check) and asserts every result is
// byte-identical to the serial oracle: pooled workspaces must never bleed
// state between in-flight calls.
func TestPredictorConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := NewNetwork(PaperArch(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := net.Predictor()

	const goroutines = 8
	const iters = 40
	// Distinct input per goroutine, oracle computed serially up front.
	inputs := make([][][]float64, goroutines)
	wants := make([][][]float64, goroutines)
	for g := range inputs {
		inputs[g] = randRows(rng, 61, 3)
		wants[g] = naivePredict(net, inputs[g])
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([][]float64, 61)
			for i := range dst {
				dst[i] = make([]float64, 1)
			}
			for it := 0; it < iters; it++ {
				if err := p.PredictInto(dst, inputs[g]); err != nil {
					errs[g] = err
					return
				}
				if !sameBits(dst, wants[g]) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: output differs from serial oracle", g, it)
					return
				}
				got, err := p.Predict(inputs[g])
				if err != nil {
					errs[g] = err
					return
				}
				if !sameBits(got, wants[g]) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: Predict differs from serial oracle", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredictIntoValidation pins the error cases of the zero-alloc entry
// points.
func TestPredictIntoValidation(t *testing.T) {
	net, err := NewNetwork(PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := net.Predictor()
	rows := randRows(rand.New(rand.NewSource(1)), 4, 3)

	if err := p.PredictInto(make([][]float64, 3), rows); err == nil {
		t.Error("want error for dst row-count mismatch")
	}
	bad := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	if err := p.PredictInto(bad, rows); err == nil {
		t.Error("want error for dst col-width mismatch")
	}
	if err := p.PredictInto(nil, nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
	if _, err := p.Predict([][]float64{{1, 2}}); err == nil {
		t.Error("want error for wrong feature count")
	}
	if _, err := p.Predict([][]float64{{1, 2, 3}, {1}}); err == nil {
		t.Error("want error for ragged rows")
	}
	if err := p.PredictMatInto(mat.New(2, 1), mat.New(3, 3)); err == nil {
		t.Error("want error for dst/x row mismatch")
	}
	if err := p.PredictMatInto(mat.New(3, 2), mat.New(3, 3)); err == nil {
		t.Error("want error for dst output-width mismatch")
	}
}

// TestPredict1NoPanicOnMultiOutput pins the fixed latent panic: Predict1 on
// a multi-output network must return an error, never index out of range
// while formatting it.
func TestPredict1NoPanicOnMultiOutput(t *testing.T) {
	net, err := NewNetwork(Arch{Inputs: 2, Hidden: []int{4}, Outputs: 2, HiddenAct: "relu", OutputAct: "linear"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Predict1([]float64{1, 2}); err == nil {
		t.Fatal("want error for multi-output network")
	}
}

// TestPredictEmptyBatch preserves the historical nil,nil contract.
func TestPredictEmptyBatch(t *testing.T) {
	net, err := NewNetwork(PaperArch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Predict(nil)
	if out != nil || err != nil {
		t.Fatalf("Predict(nil) = %v, %v; want nil, nil", out, err)
	}
}
