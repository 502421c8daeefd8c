package costmodel

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// This file checks the Cardenas form granulesTouched prices fragments
// with, G·(−expm1((rows/G)·log1p(−p))), against an arbitrary-precision
// reference of G·(1 − (1−p)^y).

// touchProbRef returns 1 − (1−p)^y for an integer y ≥ 1, computed with
// math/big: 1−p is exact at the chosen precision and the power is an
// exact-integer square-and-multiply, so every rounding sits ~200 bits
// below float64's.
func touchProbRef(p float64, y uint64) *big.Float {
	// 256 bits, plus the bits 1−p needs to keep all of a tiny p.
	prec := uint(256)
	if _, e := math.Frexp(p); e < 0 {
		prec += uint(-e)
	}
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	q := new(big.Float).SetPrec(prec).Sub(one, new(big.Float).SetPrec(prec).SetFloat64(p))
	pow := new(big.Float).SetPrec(prec).SetInt64(1)
	for base := q; y > 0; y >>= 1 {
		if y&1 == 1 {
			pow.Mul(pow, base)
		}
		base = new(big.Float).SetPrec(prec).Mul(base, base)
	}
	return new(big.Float).SetPrec(prec).Sub(one, pow)
}

// relErr returns |got − want| / want.
func relErr(got float64, want *big.Float) float64 {
	d := new(big.Float).SetPrec(want.Prec()).SetFloat64(got)
	d.Sub(d, want).Quo(d, want)
	f, _ := d.Float64()
	return math.Abs(f)
}

// TestGranulesTouchedAccuracy: over p log-uniform in [1e-7, 0.1] and
// integer rows/G in [1, 1e6] (log-uniform, so small exponents are
// covered), granulesTouched is within 1e-15 relative of the reference.
// The old form G·(1 − math.Pow(1−p, rows/G)) is measured alongside.
func TestGranulesTouchedAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var worst, worstPow float64
	for i := 0; i < 4096; i++ {
		p := math.Pow(10, -7+6*rng.Float64())
		y := uint64(math.Round(math.Pow(10, 6*rng.Float64())))
		G := float64(uint64(1) << rng.Intn(9)) // rows/G is exactly y
		want := touchProbRef(p, y)
		want.Mul(want, new(big.Float).SetFloat64(G))
		got := granulesTouched(G, float64(y)*G, p, math.Log1p(-p))
		if e := relErr(got, want); e > 1e-15 {
			t.Fatalf("p=%g rows/G=%d G=%g: granulesTouched = %.17g, relative error %.3g > 1e-15", p, y, G, got, e)
		} else if e > worst {
			worst = e
		}
		worstPow = max(worstPow, relErr(G*(1-math.Pow(1-p, float64(y))), want))
	}
	t.Logf("max relative error: expm1 form %.3g, math.Pow form %.3g", worst, worstPow)
}

// FuzzGranulesTouched: for fuzzer-chosen p, rows/G and G the result lies
// in [0, G], does not decrease when p grows, and agrees with the
// reference to 1e-15 for p a normal float64 in (0, 1). (Below the normal
// range y·log1p(−p) is a subnormal with fewer than 53 significant bits.)
func FuzzGranulesTouched(f *testing.F) {
	f.Add(1e-4, 2e-4, uint32(1000), uint16(1))
	f.Add(2.755e-5, 0.5, uint32(1389), uint16(64))
	f.Add(1e-300, 1e-7, uint32(999999), uint16(3))
	f.Add(5e-324, 1e-310, uint32(12345), uint16(9))
	f.Add(0.999999, 1.0, uint32(7), uint16(256))
	f.Add(-1.0, 0.0, uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, p1, p2 float64, yRaw uint32, gRaw uint16) {
		if math.IsNaN(p1) || math.IsNaN(p2) {
			t.Skip()
		}
		lo, hi := min(p1, p2), max(p1, p2)
		y := uint64(yRaw%1_000_000) + 1
		G := float64(gRaw%1024) + 1
		rows := float64(y) * G
		tLo := granulesTouched(G, rows, lo, math.Log1p(-lo))
		tHi := granulesTouched(G, rows, hi, math.Log1p(-hi))
		for _, v := range []float64{tLo, tHi} {
			if !(v >= 0 && v <= G) {
				t.Fatalf("G=%g rows=%g: granulesTouched = %g, outside [0, G]", G, rows, v)
			}
		}
		if tLo > tHi {
			t.Fatalf("G=%g rows=%g: not monotone in p: %.17g at p=%g > %.17g at p=%g", G, rows, tLo, lo, tHi, hi)
		}
		if lo < 0x1p-1022 || lo >= 1 {
			return
		}
		want := touchProbRef(lo, y)
		want.Mul(want, new(big.Float).SetFloat64(G))
		if e := relErr(tLo, want); e > 1e-15 {
			t.Fatalf("p=%g rows/G=%d G=%g: granulesTouched = %.17g, relative error %.3g > 1e-15", lo, y, G, tLo, e)
		}
	})
}
