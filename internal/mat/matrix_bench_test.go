package mat

import (
	"math/rand"
	"testing"
)

func benchMats(n int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	return randMat(rng, n, n), randMat(rng, n, n)
}

func BenchmarkMul64(b *testing.B) {
	x, y := benchMats(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMul256(b *testing.B) {
	x, y := benchMats(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkSolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 64, 64)
	for i := 0; i < 64; i++ {
		a.Set(i, i, a.At(i, i)+65)
	}
	rhs := make([]float64, 64)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
