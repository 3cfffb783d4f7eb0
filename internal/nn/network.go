package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gpudvfs/internal/mat"
)

// Layer is one fully connected layer: y = act(x·Wᵀ + b).
type Layer struct {
	In, Out int
	W       *mat.Matrix // Out×In
	B       []float64   // Out
	Act     Activation

	// Scratch saved by the last Forward call, consumed by Backward.
	// lastZ and lastA are reusable workspaces: Forward overwrites them in
	// place (growing their backing arrays only when the batch outgrows
	// them), so the steady-state training loop allocates nothing.
	lastX *mat.Matrix // batch input, n×In
	lastZ *mat.Matrix // pre-activation, n×Out
	lastA *mat.Matrix // activation output, n×Out

	// Backward workspaces, reused the same way.
	dZ *mat.Matrix // n×Out
	dX *mat.Matrix // n×In, returned to the layer below

	// Gradients from the last Backward call (reused across batches).
	gradW *mat.Matrix
	gradB []float64
}

// reshape resizes *m to rows×cols, reusing the backing array when its
// capacity suffices and allocating a fresh matrix only on growth. The
// training loop's batch sizes repeat (full batches, one partial tail,
// the validation set), so after the first epoch every reshape is a
// header update with zero allocation.
func reshape(m **mat.Matrix, rows, cols int) *mat.Matrix {
	if *m == nil || cap((*m).Data) < rows*cols {
		*m = mat.New(rows, cols)
	} else {
		(*m).Rows, (*m).Cols = rows, cols
		(*m).Data = (*m).Data[:rows*cols]
	}
	return *m
}

// NewLayer creates a layer with weights initialized for the given
// activation: LeCun-normal for SELU (required for its self-normalizing
// property), He-normal for the ReLU family, and Xavier/Glorot otherwise.
func NewLayer(in, out int, act Activation, rng *rand.Rand) *Layer {
	l := &Layer{In: in, Out: out, W: mat.New(out, in), B: make([]float64, out), Act: act}
	var std float64
	switch act.Name() {
	case "selu":
		std = math.Sqrt(1 / float64(in)) // LeCun normal
	case "relu", "leaky_relu", "elu":
		std = math.Sqrt(2 / float64(in)) // He normal
	default:
		std = math.Sqrt(2 / float64(in+out)) // Xavier
	}
	for i := range l.W.Data {
		l.W.Data[i] = rng.NormFloat64() * std
	}
	return l
}

// Forward computes the layer output for a batch x (n×In), caching the
// intermediates needed by Backward. The returned matrix is a workspace
// owned by the layer: it stays valid until the next Forward call.
func (l *Layer) Forward(x *mat.Matrix) *mat.Matrix {
	z := reshape(&l.lastZ, x.Rows, l.Out)
	mat.MulTBInto(z, x, l.W)
	z.AddRowVec(l.B)
	a := reshape(&l.lastA, x.Rows, l.Out)
	copy(a.Data, z.Data)
	a.Apply(l.Act.Func)
	l.lastX = x
	return a
}

// Backward receives dL/dA for this layer's output and returns dL/dX for the
// layer below, storing the weight and bias gradients internally. Any
// batch-size averaging belongs in the loss gradient the caller feeds in
// (Fit passes dL/dŷ = 2(ŷ−y)/m); Backward itself only sums over the batch.
func (l *Layer) Backward(dA *mat.Matrix) *mat.Matrix {
	n := dA.Rows
	// dZ = dA ∘ act'(Z)
	dZ := reshape(&l.dZ, n, l.Out)
	for i := 0; i < n; i++ {
		zr, ar, dr, or := l.lastZ.Row(i), l.lastA.Row(i), dA.Row(i), dZ.Row(i)
		for j := range or {
			or[j] = dr[j] * l.Act.Deriv(zr[j], ar[j])
		}
	}
	// dW = dZᵀ·X ; db = colsum(dZ) ; dX = dZ·W — all into reused
	// workspaces via fused kernels (no transpose materialization).
	if l.gradW == nil {
		l.gradW = mat.New(l.Out, l.In)
	}
	mat.MulTAInto(l.gradW, dZ, l.lastX)
	if l.gradB == nil {
		l.gradB = make([]float64, l.Out)
	}
	dZ.ColSumsInto(l.gradB)
	return mat.MulInto(reshape(&l.dX, n, l.In), dZ, l.W)
}

// Network is a feed-forward neural network of fully connected layers.
type Network struct {
	Layers []*Layer

	// predOnce guards the lazily built default Predictor that Predict
	// routes through. Workspace shapes depend only on the layer widths,
	// which are fixed at construction, so the predictor never goes stale.
	predOnce sync.Once
	pred     *Predictor
}

// Arch describes a network architecture: layer widths, hidden activation,
// and output activation (linear for regression).
type Arch struct {
	Inputs    int    `json:"inputs"`
	Hidden    []int  `json:"hidden"`
	Outputs   int    `json:"outputs"`
	HiddenAct string `json:"hidden_act"`
	OutputAct string `json:"output_act"`
}

// PaperArch returns the architecture used throughout the paper: the given
// number of input features, three hidden layers of 64 SELU neurons, and a
// single linear output.
func PaperArch(inputs int) Arch {
	return Arch{Inputs: inputs, Hidden: []int{64, 64, 64}, Outputs: 1, HiddenAct: "selu", OutputAct: "linear"}
}

// NewNetwork builds a network with freshly initialized weights drawn from
// the seeded source, making construction deterministic.
func NewNetwork(a Arch, seed int64) (*Network, error) {
	if a.Inputs <= 0 || a.Outputs <= 0 {
		return nil, fmt.Errorf("nn: invalid architecture: inputs=%d outputs=%d", a.Inputs, a.Outputs)
	}
	hact, err := ActivationByName(a.HiddenAct)
	if err != nil {
		return nil, err
	}
	oact, err := ActivationByName(a.OutputAct)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	net := &Network{}
	prev := a.Inputs
	for _, h := range a.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: invalid hidden width %d", h)
		}
		net.Layers = append(net.Layers, NewLayer(prev, h, hact, rng))
		prev = h
	}
	net.Layers = append(net.Layers, NewLayer(prev, a.Outputs, oact, rng))
	return net, nil
}

// Forward runs a training-mode forward pass over batch x.
func (n *Network) Forward(x *mat.Matrix) *mat.Matrix {
	a := x
	for _, l := range n.Layers {
		a = l.Forward(a)
	}
	return a
}

// Backward propagates dL/dŷ through all layers, leaving per-layer gradients
// stored on each layer.
func (n *Network) Backward(dOut *mat.Matrix) {
	d := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d = n.Layers[i].Backward(d)
	}
}

// Step applies one optimizer update using the gradients from the last
// Backward call.
func (n *Network) Step(opt Optimizer) {
	for i, l := range n.Layers {
		opt.Step(2*i, l.W.Data, l.gradW.Data)
		opt.Step(2*i+1, l.B, l.gradB)
	}
}

// Predictor returns the network's shared pooled-inference engine, building
// it on first use. All callers share one predictor; concurrency is handled
// by its internal workspace pool.
func (n *Network) Predictor() *Predictor {
	n.predOnce.Do(func() { n.pred = newPredictor(n) })
	return n.pred
}

// Predict runs inference on a batch of rows and returns one output row per
// input row. It does not mutate training state and is safe for concurrent
// callers once training has completed. It routes through the shared
// Predictor, so the per-call intermediates come from a workspace pool; the
// returned values are bit-identical to the historical allocate-per-call
// implementation.
func (n *Network) Predict(rows [][]float64) ([][]float64, error) {
	return n.Predictor().Predict(rows)
}

// Predict1 is a convenience wrapper for a single input row with a single
// output neuron.
func (n *Network) Predict1(row []float64) (float64, error) {
	out, err := n.Predict([][]float64{row})
	if err != nil {
		return 0, err
	}
	if len(out) == 0 {
		return 0, fmt.Errorf("nn: Predict1 produced no output rows")
	}
	if len(out) != 1 || len(out[0]) != 1 {
		return 0, fmt.Errorf("nn: Predict1 on network with %d outputs", len(out[0]))
	}
	return out[0][0], nil
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}
