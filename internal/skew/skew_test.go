package skew

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSharesUniform(t *testing.T) {
	s, err := Shares(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s {
		if !almostEqual(v, 0.1, 1e-12) {
			t.Fatalf("share[%d] = %g, want 0.1", i, v)
		}
	}
}

func TestSharesZipfShape(t *testing.T) {
	s, err := Shares(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(Sum(s), 1, 1e-9) {
		t.Fatalf("sum = %g, want 1", Sum(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			t.Fatalf("shares not non-increasing at %d: %g > %g", i, s[i], s[i-1])
		}
	}
	// Zipf(1): share[0]/share[9] should be 10.
	if ratio := s[0] / s[9]; !almostEqual(ratio, 10, 1e-9) {
		t.Fatalf("ratio = %g, want 10", ratio)
	}
}

func TestSharesErrors(t *testing.T) {
	if _, err := Shares(0, 1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := Shares(5, -1); !errors.Is(err, ErrBadParams) {
		t.Fatalf("theta<0: %v", err)
	}
}

func TestMustSharesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustShares(0, 0) should panic")
		}
	}()
	MustShares(0, 0)
}

func TestUniformHelper(t *testing.T) {
	u := Uniform(4)
	if len(u) != 4 || !almostEqual(u[2], 0.25, 1e-12) {
		t.Fatalf("Uniform(4) = %v", u)
	}
}

func TestAggregateUpPreservesMass(t *testing.T) {
	bottom := MustShares(9000, 0.86)
	for _, card := range []int{1, 4, 15, 75, 250, 605, 9000} {
		up, err := AggregateUp(bottom, card)
		if err != nil {
			t.Fatalf("card=%d: %v", card, err)
		}
		if len(up) != card {
			t.Fatalf("card=%d: len=%d", card, len(up))
		}
		if !almostEqual(Sum(up), 1, 1e-9) {
			t.Fatalf("card=%d: sum=%g", card, Sum(up))
		}
	}
}

func TestAggregateUpInterleavedSmoothsSkew(t *testing.T) {
	bottom := MustShares(9000, 1.0)
	inter, _ := AggregateUp(bottom, 75)
	contig, _ := AggregateUpContiguous(bottom, 75)
	if CV(inter) >= CV(contig) {
		t.Fatalf("interleaved CV %g should be < contiguous CV %g", CV(inter), CV(contig))
	}
}

func TestAggregateErrors(t *testing.T) {
	b := Uniform(10)
	if _, err := AggregateUp(b, 0); !errors.Is(err, ErrBadParams) {
		t.Fatalf("card=0: %v", err)
	}
	if _, err := AggregateUp(b, 11); !errors.Is(err, ErrBadParams) {
		t.Fatalf("card>n: %v", err)
	}
	if _, err := AggregateUpContiguous(b, 0); !errors.Is(err, ErrBadParams) {
		t.Fatalf("contig card=0: %v", err)
	}
	if _, err := AggregateUpContiguous(b, 11); !errors.Is(err, ErrBadParams) {
		t.Fatalf("contig card>n: %v", err)
	}
	if _, err := Aggregate(b, 5, Mapping(99)); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad mapping: %v", err)
	}
}

func TestAggregateDispatch(t *testing.T) {
	b := MustShares(100, 1)
	i1, err := Aggregate(b, 10, Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	i2, _ := AggregateUp(b, 10)
	for k := range i1 {
		if i1[k] != i2[k] {
			t.Fatalf("Aggregate(Interleaved) diverges at %d", k)
		}
	}
	c1, err := Aggregate(b, 10, Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := AggregateUpContiguous(b, 10)
	for k := range c1 {
		if c1[k] != c2[k] {
			t.Fatalf("Aggregate(Contiguous) diverges at %d", k)
		}
	}
}

func TestMappingString(t *testing.T) {
	if Interleaved.String() != "interleaved" || Contiguous.String() != "contiguous" {
		t.Fatal("Mapping.String mismatch")
	}
	if Mapping(7).String() != "Mapping(7)" {
		t.Fatalf("unknown mapping string = %q", Mapping(7).String())
	}
}

func TestCV(t *testing.T) {
	if got := CV(Uniform(50)); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("CV(uniform) = %g", got)
	}
	if got := CV(nil); got != 0 {
		t.Fatalf("CV(nil) = %g", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV(zeros) = %g", got)
	}
	low := CV(MustShares(100, 0.5))
	high := CV(MustShares(100, 1.5))
	if low >= high {
		t.Fatalf("CV should grow with theta: %g >= %g", low, high)
	}
}

func TestSamplerBasics(t *testing.T) {
	s, err := NewSampler([]float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Index(0.0); got != 0 {
		t.Fatalf("Index(0) = %d", got)
	}
	if got := s.Index(0.49); got != 0 {
		t.Fatalf("Index(0.49) = %d", got)
	}
	if got := s.Index(0.51); got != 1 {
		t.Fatalf("Index(0.51) = %d", got)
	}
	if got := s.Index(0.99); got != 2 {
		t.Fatalf("Index(0.99) = %d", got)
	}
	// Out-of-range u is clamped.
	if got := s.Index(-1); got != 0 {
		t.Fatalf("Index(-1) = %d", got)
	}
	if got := s.Index(2); got != 2 {
		t.Fatalf("Index(2) = %d", got)
	}
}

func TestSamplerErrors(t *testing.T) {
	if _, err := NewSampler(nil); !errors.Is(err, ErrBadParams) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := NewSampler([]float64{-1, 2}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("negative: %v", err)
	}
	if _, err := NewSampler([]float64{0, 0}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("zero sum: %v", err)
	}
	if _, err := NewSampler([]float64{math.NaN()}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("NaN: %v", err)
	}
}

func TestSamplerMatchesDistribution(t *testing.T) {
	shares := MustShares(10, 1)
	s, err := NewSampler(shares)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 10)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		counts[s.Index(rng.Float64())]++
	}
	for i, want := range shares {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("value %d: empirical %g vs share %g", i, got, want)
		}
	}
}

func TestSamplerUnnormalizedWeights(t *testing.T) {
	s, err := NewSampler([]float64{2, 2}) // sums to 4; should normalize
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Index(0.25); got != 0 {
		t.Fatalf("Index(0.25) = %d", got)
	}
	if got := s.Index(0.75); got != 1 {
		t.Fatalf("Index(0.75) = %d", got)
	}
}

// Property: Shares always sums to ~1 and is non-increasing for any valid
// (n, theta).
func TestSharesProperties(t *testing.T) {
	f := func(nRaw uint16, thetaRaw uint8) bool {
		n := int(nRaw%5000) + 1
		theta := float64(thetaRaw%20) / 10.0 // 0..1.9
		s, err := Shares(n, theta)
		if err != nil {
			return false
		}
		if !almostEqual(Sum(s), 1, 1e-6) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregation preserves total mass for both mappings.
func TestAggregatePreservesMassProperty(t *testing.T) {
	f := func(nRaw, cardRaw uint16, thetaRaw uint8, contiguous bool) bool {
		n := int(nRaw%2000) + 1
		card := int(cardRaw)%n + 1
		theta := float64(thetaRaw%15) / 10.0
		bottom := MustShares(n, theta)
		m := Interleaved
		if contiguous {
			m = Contiguous
		}
		up, err := Aggregate(bottom, card, m)
		if err != nil {
			return false
		}
		return almostEqual(Sum(up), 1, 1e-6) && len(up) == card
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
