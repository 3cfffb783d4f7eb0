// Package mat provides small dense matrix and vector kernels used by the
// neural-network, baseline-learner, and mutual-information packages.
//
// The package is deliberately minimal: row-major float64 matrices, the
// handful of BLAS-like operations the rest of the repository needs, and a
// dense linear solver. It has no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New or NewFromRows to build
// non-empty matrices.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equally sized rows.
// The data is copied.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mat: ragged input: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns the matrix product a*b.
// It panics if the inner dimensions disagree.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	// ikj loop order: streams over b's rows, cache friendly for row-major data.
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Add stores a+b into dst (all must share dimensions) and returns dst.
func Add(dst, a, b *Matrix) *Matrix {
	checkSame(a, b)
	checkSame(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub stores a-b into dst and returns dst.
func Sub(dst, a, b *Matrix) *Matrix {
	checkSame(a, b)
	checkSame(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVec adds vector v to every row of m in place and returns m.
func (m *Matrix) AddRowVec(v []float64) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVec len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
	return m
}

// ColSums returns the per-column sums of m.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Apply replaces every element x with f(x) in place and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// Hadamard stores the element-wise product a∘b into dst and returns dst.
func Hadamard(dst, a, b *Matrix) *Matrix {
	checkSame(a, b)
	checkSame(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

func checkSame(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// ErrSingular is returned by Solve when the system matrix is singular or so
// ill conditioned that no pivot above the tolerance can be found.
var ErrSingular = errors.New("mat: matrix is singular")

// Solve solves the linear system A·x = b using Gaussian elimination with
// partial pivoting. A must be square; A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mat: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: Solve rhs length %d != %d", len(b), n)
	}
	// Augmented working copies.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	const tol = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, pmax := col, math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > pmax {
				pivot, pmax = r, v
			}
		}
		if pmax < tol {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := w.Row(pivot), w.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := w.Row(r), w.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := w.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AXPY computes y ← a·x + y in place and returns y.
func AXPY(a float64, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
	return y
}
