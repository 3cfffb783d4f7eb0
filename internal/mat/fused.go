package mat

import "fmt"

// Fused transpose-multiply kernels. The training hot path needs x·Wᵀ
// (forward), dZᵀ·X (weight gradient), and dZ·W (input gradient) every
// mini-batch; forming the transpose first costs an allocation and a full
// copy per call. The kernels below read the transposed operand in place.
//
// Every kernel reproduces the exact iteration order and skip-zero
// behaviour of Mul applied to an explicitly transposed operand, so the
// results are bit-identical to the allocate-and-transpose formulation —
// the property that lets the nn package adopt them without perturbing
// trained weights.

// MulInto stores a·b into dst (which must be a.Rows×b.Cols) and returns
// dst. dst is overwritten, not accumulated into. It panics on dimension
// mismatch. The summation order matches Mul exactly.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
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
	return dst
}

// MulTAInto stores aᵀ·b into dst (a.Cols×b.Cols) and returns dst,
// overwriting dst. Bit-identical to Mul(a.T(), b): for each output
// element the products accumulate over k (rows of a) in increasing
// order, and zero a-elements are skipped exactly as Mul skips them.
func MulTAInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: dimension mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTAInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Cols; i++ {
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*a.Cols+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// MulTBInto stores a·bᵀ into dst (a.Rows×b.Rows) and returns dst,
// overwriting dst. Bit-identical to Mul(a, b.T()): same i,k,j iteration
// order, same skip on zero a-elements.
func MulTBInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTBInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			for j := 0; j < b.Rows; j++ {
				orow[j] += av * b.Data[j*b.Cols+k]
			}
		}
	}
	return dst
}

// ColSumsInto stores the per-column sums of m into dst (len m.Cols) and
// returns dst, overwriting dst. Summation order matches ColSums.
func (m *Matrix) ColSumsInto(dst []float64) []float64 {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: ColSumsInto len %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
	return dst
}
