package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1,2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestNewFromRowsRagged(t *testing.T) {
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestNewFromRowsEmpty(t *testing.T) {
	m, err := NewFromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("dims %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestNewFromRowsCopies(t *testing.T) {
	row := []float64{1, 2}
	m, _ := NewFromRows([][]float64{row})
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("NewFromRows did not copy input")
	}
}

func TestSetAtRow(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	r := m.Row(1)
	r[1] = 9 // Row is a view
	if m.At(1, 1) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// naiveMul is the reference O(n³) product used to validate Mul.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		r, k, c := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := randMat(rng, r, k), randMat(rng, k, c)
		got, want := Mul(a, b), naiveMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("trial %d: Mul mismatch at %d: %v vs %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with bad dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulTransposeProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		a, b := randMat(rng, 1+rng.Intn(6), 1+rng.Intn(6)), (*Matrix)(nil)
		b = randMat(rng, a.Cols, 1+rng.Intn(6))
		left := Mul(a, b).T()
		right := Mul(b.T(), a.T())
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-12) {
				t.Fatalf("transpose property violated at %d", i)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(m, []float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MulVec(New(2, 2), []float64{1})
}

func TestAddSubHadamard(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}})
	b, _ := NewFromRows([][]float64{{3, 5}})
	sum := Add(New(1, 2), a, b)
	if sum.At(0, 0) != 4 || sum.At(0, 1) != 7 {
		t.Fatalf("Add = %v", sum.Data)
	}
	diff := Sub(New(1, 2), b, a)
	if diff.At(0, 0) != 2 || diff.At(0, 1) != 3 {
		t.Fatalf("Sub = %v", diff.Data)
	}
	had := Hadamard(New(1, 2), a, b)
	if had.At(0, 0) != 3 || had.At(0, 1) != 10 {
		t.Fatalf("Hadamard = %v", had.Data)
	}
}

func TestScaleApply(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, -2}})
	m.Scale(3)
	if m.At(0, 0) != 3 || m.At(0, 1) != -6 {
		t.Fatalf("Scale = %v", m.Data)
	}
	m.Apply(math.Abs)
	if m.At(0, 1) != 6 {
		t.Fatalf("Apply = %v", m.Data)
	}
}

func TestAddRowVecColSums(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVec([]float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVec = %v", m.Data)
	}
	cs := m.ColSums()
	if cs[0] != 24 || cs[1] != 46 {
		t.Fatalf("ColSums = %v", cs)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a, _ := NewFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved")
	}
}

func TestSolveNonSquare(t *testing.T) {
	if _, err := Solve(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestSolveRHSMismatch(t *testing.T) {
	if _, err := Solve(New(2, 2), []float64{1}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a, _ := NewFromRows([][]float64{{3, 1}, {1, 2}})
	b := []float64{4, 5}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Solve mutated A")
		}
	}
	if b[0] != 4 || b[1] != 5 {
		t.Fatal("Solve mutated b")
	}
}

// TestSolveRoundTrip is the property Solve(A, A·x) ≈ x for random
// well-conditioned systems.
func TestSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		// Diagonally dominant → well conditioned.
		a := randMat(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := MulVec(a, x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDotNorm2AXPY(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v", y)
	}
}

func TestDotLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
