package mat

import (
	"math"
	"math/rand"
	"testing"
)

// assertBitsEqual compares element bit patterns, so the sign of zero
// counts — the contract MulTBBlockedInto advertises. The one exception is
// NaN payloads: any NaN matches any NaN, because payloads are unspecified
// by IEEE 754 and shift with the compiler's FMA-fusion decisions (which
// differ between plain and -race builds), while *whether* an element is
// NaN is fully determined by the accumulation order and must agree.
func assertBitsEqual(t *testing.T, name string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.IsNaN(want.Data[i]) && math.IsNaN(got.Data[i]) {
			continue
		}
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestMulTBBlockedMatchesNaive sweeps shapes around the tile edges —
// every b.Rows residue mod the tile width, plus the layer shapes the
// predictor actually runs — and demands bit-identity with the naive
// reference kernel on dirty destinations.
func TestMulTBBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][2]int{}
	for n := 1; n <= 9; n++ {
		for m := 1; m <= 9; m++ {
			shapes = append(shapes, [2]int{n, m})
		}
	}
	// Predictor-relevant shapes: 61/183 sweep rows against 64-wide layers,
	// and the width-1 output heads.
	shapes = append(shapes, [2]int{61, 64}, [2]int{183, 64}, [2]int{61, 1}, [2]int{183, 1}, [2]int{64, 64}, [2]int{5, 4}, [2]int{5, 8})
	for _, s := range shapes {
		n, m := s[0], s[1]
		for _, k := range []int{1, 2, 3, 7, 64} {
			a := randMatrix(n, k, rng)
			b := randMatrix(m, k, rng)
			want := MulTBInto(randMatrix(n, m, rng), a, b)
			got := MulTBBlockedInto(randMatrix(n, m, rng), a, b)
			assertBitsEqual(t, "MulTBBlockedInto", want, got)
		}
	}
}

// TestMulTBBlockedSpecialValues exercises the IEEE corners where an
// accumulation-order change would show: signed zeros (0 + -0 = +0 only if
// the skip branches agree), infinities (Inf - Inf = NaN depends on which
// products are formed), and NaN propagation.
func TestMulTBBlockedSpecialValues(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e-308, math.MaxFloat64}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n, m, k := 1+rng.Intn(6), 1+rng.Intn(11), 1+rng.Intn(5)
		a := New(n, k)
		b := New(m, k)
		for i := range a.Data {
			a.Data[i] = specials[rng.Intn(len(specials))]
		}
		for i := range b.Data {
			b.Data[i] = specials[rng.Intn(len(specials))]
		}
		want := MulTBInto(New(n, m), a, b)
		got := MulTBBlockedInto(New(n, m), a, b)
		assertBitsEqual(t, "MulTBBlockedInto(special)", want, got)
	}
}

// TestMulTBBlockedOverwrites pins that the blocked kernel overwrites a
// dirty destination (including stale -0 entries) exactly like the naive
// kernel's zero-then-accumulate formulation.
func TestMulTBBlockedOverwrites(t *testing.T) {
	a := New(2, 3) // all zeros: every av==0 skip fires
	b := New(5, 3)
	dirty := func() *Matrix {
		d := New(2, 5)
		for i := range d.Data {
			d.Data[i] = math.Copysign(0, -1)
		}
		return d
	}
	want := MulTBInto(dirty(), a, b)
	got := MulTBBlockedInto(dirty(), a, b)
	assertBitsEqual(t, "MulTBBlockedInto(zero rows)", want, got)
	for i, v := range got.Data {
		if math.Signbit(v) {
			t.Fatalf("element %d kept stale -0; kernel must overwrite with +0", i)
		}
	}
}

// TestMulTBBlockedIntoDimPanics pins that the blocked kernel panics on an
// inner-dimension mismatch (at a serving-sized shape) and on a destination
// of the wrong shape, like the naive kernel.
func TestMulTBBlockedIntoDimPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"inner dims": func() { MulTBBlockedInto(New(100, 100), New(100, 3), New(100, 4)) },
		"dst":        func() { MulTBBlockedInto(New(1, 1), New(3, 2), New(4, 2)) },
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

// FuzzMulTBBlockedMatchesNaive fuzzes shapes and raw element bits —
// arbitrary bit patterns decode to NaNs, infinities, denormals and signed
// zeros — demanding the blocked kernel match the naive reference bit for
// bit (NaN payloads excepted, as in assertBitsEqual), including
// non-multiple-of-tile column counts.
func FuzzMulTBBlockedMatchesNaive(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(4), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(7), uint8(9), uint8(3), int64(3))
	f.Add(uint8(61), uint8(64), uint8(8), int64(4))
	f.Fuzz(func(t *testing.T, nRaw, mRaw, kRaw uint8, seed int64) {
		n := 1 + int(nRaw)%32
		m := 1 + int(mRaw)%32
		k := 1 + int(kRaw)%16
		rng := rand.New(rand.NewSource(seed))
		a := New(n, k)
		b := New(m, k)
		for i := range a.Data {
			a.Data[i] = math.Float64frombits(rng.Uint64())
		}
		for i := range b.Data {
			b.Data[i] = math.Float64frombits(rng.Uint64())
		}
		want := MulTBInto(New(n, m), a, b)
		got := MulTBBlockedInto(New(n, m), a, b)
		for i := range want.Data {
			if math.IsNaN(want.Data[i]) && math.IsNaN(got.Data[i]) {
				continue
			}
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("shape %dx%d·(%dx%d)ᵀ element %d: blocked %x, naive %x",
					n, k, m, k, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	})
}

func BenchmarkMulTB61x64(b *testing.B) {
	bench := func(b *testing.B, rows int, mul func(dst, a, bb *Matrix) *Matrix) {
		rng := rand.New(rand.NewSource(7))
		a := randMatrix(rows, 64, rng)
		w := randMatrix(64, 64, rng)
		dst := New(rows, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mul(dst, a, w)
		}
	}
	b.Run("naive-61", func(b *testing.B) { bench(b, 61, MulTBInto) })
	b.Run("blocked-61", func(b *testing.B) { bench(b, 61, MulTBBlockedInto) })
	b.Run("naive-183", func(b *testing.B) { bench(b, 183, MulTBInto) })
	b.Run("blocked-183", func(b *testing.B) { bench(b, 183, MulTBBlockedInto) })
}
