package nn

import (
	"fmt"
	"sync"

	"gpudvfs/internal/mat"
)

// Predictor is the serving-grade inference engine over a trained Network:
// it keeps reusable per-layer forward workspaces behind a sync.Pool, so
// steady-state batch inference allocates nothing while remaining safe for
// any number of concurrent callers (each in-flight call owns one pooled
// workspace).
//
// Every path through the Predictor is bit-identical to a naive per-row
// evaluation of y = act(x·Wᵀ + b): the forward pass runs the serial
// register-tiled mat.MulTBBlockedInto kernel (bit-identical to Mul against
// a materialized transpose), then adds the bias to each sum and applies
// the activation, in that order, element by element.
//
// A Predictor reads the network's weights live — it holds no weight
// snapshot — so it must not be used concurrently with training, the same
// contract Network.Predict always had.
type Predictor struct {
	net  *Network
	pool sync.Pool // *predictWS
}

// predictWS is one in-flight call's workspace: the staged input batch and
// one output buffer per layer, all grow-only.
type predictWS struct {
	x    *mat.Matrix
	acts []*mat.Matrix
}

// NewPredictor returns a pooled-inference engine over net.
func NewPredictor(net *Network) (*Predictor, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("nn: NewPredictor on empty network")
	}
	return newPredictor(net), nil
}

func newPredictor(net *Network) *Predictor {
	p := &Predictor{net: net}
	p.pool.New = func() any {
		return &predictWS{acts: make([]*mat.Matrix, len(net.Layers))}
	}
	return p
}

// Inputs returns the feature count the network expects per row.
func (p *Predictor) Inputs() int { return p.net.Layers[0].In }

// Outputs returns the network's output width.
func (p *Predictor) Outputs() int { return p.net.Layers[len(p.net.Layers)-1].Out }

// forward runs the inference pass over the staged batch x, returning the
// final activation matrix (a view into ws that stays valid until the
// workspace is returned to the pool). x itself is never written.
func (p *Predictor) forward(ws *predictWS, x *mat.Matrix) *mat.Matrix {
	a := x
	for i, l := range p.net.Layers {
		z := reshape(&ws.acts[i], a.Rows, l.Out)
		mat.MulTBBlockedInto(z, a, l.W)
		biasAct(z, l.B, l.Act)
		a = z
	}
	return a
}

// biasAct replaces every element s of z's column j with act(s + b[j]) in
// one pass. It must stay the same two operations, in the same order, as
// Layer.Forward's AddRowVec then Apply, so inference matches the training
// forward pass bit for bit.
func biasAct(z *mat.Matrix, b []float64, act Activation) {
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)[:len(b)]
		for j, s := range row {
			row[j] = act.Func(s + b[j])
		}
	}
}

// stage copies rows into the workspace input matrix, validating shape with
// the same error cases (and messages) as Network.Predict's original
// matrix-building path.
func (p *Predictor) stage(ws *predictWS, rows [][]float64) (*mat.Matrix, error) {
	cols := len(rows[0])
	x := reshape(&ws.x, len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mat: ragged input: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(x.Data[i*cols:(i+1)*cols], r)
	}
	if x.Cols != p.Inputs() {
		return nil, fmt.Errorf("nn: input has %d features, network expects %d", x.Cols, p.Inputs())
	}
	return x, nil
}

// Predict runs batch inference like Network.Predict, allocating the
// returned rows but drawing all intermediate workspaces from the pool.
func (p *Predictor) Predict(rows [][]float64) ([][]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	ws := p.pool.Get().(*predictWS)
	defer p.pool.Put(ws)
	x, err := p.stage(ws, rows)
	if err != nil {
		return nil, err
	}
	a := p.forward(ws, x)
	out := make([][]float64, a.Rows)
	for i := range out {
		out[i] = append([]float64(nil), a.Row(i)...)
	}
	return out, nil
}

// PredictInto runs batch inference writing one output row per input row
// into dst, which must have len(rows) rows of the network's output width.
// At steady state (pool warm) it performs zero heap allocations. The
// written values are bit-identical to Predict's.
func (p *Predictor) PredictInto(dst, rows [][]float64) error {
	if len(dst) != len(rows) {
		return fmt.Errorf("nn: PredictInto dst has %d rows, want %d", len(dst), len(rows))
	}
	if len(rows) == 0 {
		return nil
	}
	ws := p.pool.Get().(*predictWS)
	defer p.pool.Put(ws)
	x, err := p.stage(ws, rows)
	if err != nil {
		return err
	}
	a := p.forward(ws, x)
	for i := range dst {
		if len(dst[i]) != a.Cols {
			return fmt.Errorf("nn: PredictInto dst row %d has %d cols, want %d", i, len(dst[i]), a.Cols)
		}
		copy(dst[i], a.Row(i))
	}
	return nil
}

// PredictMatInto runs batch inference over a caller-staged input matrix,
// writing into dst (x.Rows × Outputs). Neither matrix is retained; x is
// never written. This is the zero-copy entry point the core Sweeper uses:
// the caller fills x in place and reuses dst across calls.
func (p *Predictor) PredictMatInto(dst, x *mat.Matrix) error {
	if x.Cols != p.Inputs() {
		return fmt.Errorf("nn: input has %d features, network expects %d", x.Cols, p.Inputs())
	}
	if dst.Rows != x.Rows || dst.Cols != p.Outputs() {
		return fmt.Errorf("nn: PredictMatInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, p.Outputs())
	}
	if x.Rows == 0 {
		return nil
	}
	ws := p.pool.Get().(*predictWS)
	defer p.pool.Put(ws)
	a := p.forward(ws, x)
	copy(dst.Data, a.Data)
	return nil
}
