package mat

import (
	"math/rand"
	"testing"
)

// randMatrix fills a matrix with normal values, zeroing a fraction of
// entries so the kernels' skip-zero branches are exercised.
func randMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			continue // leave exact zero
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestFusedKernelsBitIdentical pins the property the nn package relies
// on: the fused transpose-multiply kernels produce bit-identical results
// to Mul applied to an explicitly materialized transpose.
func TestFusedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {64, 3, 64}, {64, 64, 64}, {7, 64, 1}, {61, 64, 64}}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]

		// MulTBInto: (n×k)·(m×k)ᵀ vs Mul with explicit transpose.
		a := randMatrix(n, k, rng)
		b := randMatrix(m, k, rng)
		want := Mul(a, b.T())
		got := MulTBInto(New(n, m), a, b)
		assertBitEqual(t, "MulTBInto", want, got)

		// MulTA: (k×n)ᵀ·(k×m).
		a2 := randMatrix(k, n, rng)
		b2 := randMatrix(k, m, rng)
		want = Mul(a2.T(), b2)
		got = MulTA(a2, b2)
		assertBitEqual(t, "MulTA", want, got)

		// MulInto vs Mul, with a dirty destination to check overwrite.
		a3 := randMatrix(n, k, rng)
		b3 := randMatrix(k, m, rng)
		dst := randMatrix(n, m, rng)
		want = Mul(a3, b3)
		got = MulInto(dst, a3, b3)
		assertBitEqual(t, "MulInto", want, got)
	}
}

func assertBitEqual(t *testing.T, name string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestIntoKernelsOverwrite pins that the Into variants overwrite rather
// than accumulate when called twice on the same destination.
func TestIntoKernelsOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(5, 4, rng)
	b := randMatrix(6, 4, rng)
	dst := New(5, 6)
	first := MulTBInto(dst, a, b).Clone()
	second := MulTBInto(dst, a, b)
	assertBitEqual(t, "MulTBInto twice", first, second)

	at := randMatrix(4, 5, rng)
	bt := randMatrix(4, 6, rng)
	dst2 := New(5, 6)
	f2 := MulTAInto(dst2, at, bt).Clone()
	s2 := MulTAInto(dst2, at, bt)
	assertBitEqual(t, "MulTAInto twice", f2, s2)
}

func TestColSumsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(9, 7, rng)
	want := m.ColSums()
	dst := make([]float64, 7)
	for i := range dst {
		dst[i] = 99 // dirty
	}
	got := m.ColSumsInto(dst)
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("col %d: %v, want %v", j, got[j], want[j])
		}
	}
}

func TestFusedKernelDimensionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulTA":            func() { MulTA(New(3, 2), New(4, 2)) },
		"MulTBInto":        func() { MulTBInto(New(3, 4), New(3, 2), New(4, 3)) },
		"MulInto dst":      func() { MulInto(New(1, 1), New(3, 2), New(2, 3)) },
		"MulTAInto dst":    func() { MulTAInto(New(1, 1), New(3, 2), New(3, 4)) },
		"MulTBInto dst":    func() { MulTBInto(New(1, 1), New(3, 2), New(4, 2)) },
		"ColSumsInto dims": func() { New(2, 3).ColSumsInto(make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on dimension mismatch", name)
				}
			}()
			fn()
		}()
	}
}
