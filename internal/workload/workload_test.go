package workload

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
)

func testStar() *schema.Star {
	return &schema.Star{
		Name: "Retail",
		Fact: schema.FactTable{Name: "Sales", Rows: 1_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "Product", Levels: []schema.Level{
				{Name: "line", Cardinality: 15},
				{Name: "class", Cardinality: 605},
				{Name: "code", Cardinality: 9000},
			}},
			{Name: "Time", Levels: []schema.Level{
				{Name: "year", Cardinality: 2},
				{Name: "month", Cardinality: 24},
			}},
			{Name: "Channel", Levels: []schema.Level{
				{Name: "channel", Cardinality: 9},
			}},
		},
	}
}

func attr(t *testing.T, s *schema.Star, path string) schema.AttrRef {
	t.Helper()
	a, err := s.Attr(path)
	if err != nil {
		t.Fatalf("Attr(%s): %v", path, err)
	}
	return a
}

func testMix(t *testing.T, s *schema.Star) *Mix {
	t.Helper()
	return &Mix{Classes: []Class{
		{Name: "Q1", Predicates: []schema.AttrRef{attr(t, s, "Product.class"), attr(t, s, "Time.month")}, Weight: 3},
		{Name: "Q2", Predicates: []schema.AttrRef{attr(t, s, "Time.year")}, Weight: 1},
		{Name: "Q3", Predicates: []schema.AttrRef{attr(t, s, "Product.code"), attr(t, s, "Channel.channel")}, Weight: 2},
	}}
}

func TestMixValidateOK(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	if err := m.Validate(s); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	s := testStar()
	t.Run("empty mix", func(t *testing.T) {
		if err := (&Mix{}).Validate(s); !errors.Is(err, ErrNoClasses) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad weight", func(t *testing.T) {
		m := testMix(t, s)
		m.Classes[0].Weight = 0
		if err := m.Validate(s); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("no predicates", func(t *testing.T) {
		m := testMix(t, s)
		m.Classes[1].Predicates = nil
		if err := m.Validate(s); !errors.Is(err, ErrNoPredicates) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("duplicate dim", func(t *testing.T) {
		m := testMix(t, s)
		m.Classes[0].Predicates = append(m.Classes[0].Predicates, attr(t, s, "Product.code"))
		if err := m.Validate(s); !errors.Is(err, ErrDuplicateDim) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown attr", func(t *testing.T) {
		m := testMix(t, s)
		m.Classes[0].Predicates[0] = schema.AttrRef{Dim: 99, Level: 0}
		if err := m.Validate(s); !errors.Is(err, ErrUnknownAttr) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("duplicate class name", func(t *testing.T) {
		m := testMix(t, s)
		m.Classes[2].Name = "Q1"
		if err := m.Validate(s); !errors.Is(err, ErrDuplicateClass) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("empty class name", func(t *testing.T) {
		m := testMix(t, s)
		m.Classes[0].Name = "  "
		if err := m.Validate(s); !errors.Is(err, ErrDuplicateClass) {
			t.Fatalf("got %v", err)
		}
	})
}

func TestPredicateLookup(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	c := &m.Classes[0]
	p, ok := c.Predicate(0)
	if !ok || p.Level != 1 {
		t.Fatalf("Predicate(0) = %+v, %v", p, ok)
	}
	if _, ok := c.Predicate(2); ok {
		t.Fatal("Predicate(2) should be absent for Q1")
	}
}

func TestDescribe(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	d := m.Classes[0].Describe(s)
	for _, want := range []string{"Q1(", "Product.class", "Time.month", "w=3"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe = %q missing %q", d, want)
		}
	}
}

func TestWeights(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	if got := m.TotalWeight(); got != 6 {
		t.Fatalf("TotalWeight = %g", got)
	}
	w := m.NormalizedWeights()
	if math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[1]-1.0/6) > 1e-12 {
		t.Fatalf("NormalizedWeights = %v", w)
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", sum)
	}
	if w := (&Mix{Classes: []Class{}}).NormalizedWeights(); len(w) != 0 {
		t.Fatalf("empty mix weights = %v", w)
	}
}

func TestClassLookup(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	c, err := m.Class("Q2")
	if err != nil || c.Name != "Q2" {
		t.Fatalf("Class(Q2) = %v, %v", c, err)
	}
	if _, err := m.Class("nope"); err == nil {
		t.Fatal("Class(nope) should fail")
	}
}

func TestReferencedDims(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	got := m.ReferencedDims()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ReferencedDims = %v", got)
	}
}

func TestCloneAndScale(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	scaled, err := m.Scale("Q2", 4)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := scaled.Class("Q2")
	if c.Weight != 4 {
		t.Fatalf("scaled weight = %g", c.Weight)
	}
	orig, _ := m.Class("Q2")
	if orig.Weight != 1 {
		t.Fatal("Scale mutated the original mix")
	}
	if _, err := m.Scale("nope", 2); err == nil {
		t.Fatal("Scale(nope) should fail")
	}
	if _, err := m.Scale("Q1", 0); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("Scale factor 0: %v", err)
	}
	// Clone deep-copies predicates.
	cl := m.Clone()
	cl.Classes[0].Predicates[0] = schema.AttrRef{Dim: 2, Level: 0}
	if m.Classes[0].Predicates[0].Dim != 0 {
		t.Fatal("Clone shares predicate storage")
	}
}

func TestSamplerDistribution(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	sm, err := NewSampler(s, m, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 60_000
	for i := 0; i < n; i++ {
		in := sm.Draw()
		counts[in.Class.Name]++
		if len(in.Values) != len(in.Class.Predicates) {
			t.Fatalf("value count mismatch: %v", in)
		}
		for j, v := range in.Values {
			if v < 0 || v >= s.Cardinality(in.Class.Predicates[j]) {
				t.Fatalf("value out of range: %d for %s", v, s.AttrName(in.Class.Predicates[j]))
			}
		}
	}
	// Weights 3:1:2 → 0.5, 1/6, 1/3 within 2% absolute.
	if f := float64(counts["Q1"]) / n; math.Abs(f-0.5) > 0.02 {
		t.Fatalf("Q1 share = %g", f)
	}
	if f := float64(counts["Q2"]) / n; math.Abs(f-1.0/6) > 0.02 {
		t.Fatalf("Q2 share = %g", f)
	}
}

func TestSamplerCustomValueFn(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	sm, err := NewSampler(s, m, 1, func(a schema.AttrRef, u float64) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		in := sm.Draw()
		for _, v := range in.Values {
			if v != 0 {
				t.Fatalf("custom valueFn ignored: %v", in.Values)
			}
		}
	}
}

func TestSamplerRejectsInvalidMix(t *testing.T) {
	s := testStar()
	if _, err := NewSampler(s, &Mix{}, 1, nil); !errors.Is(err, ErrNoClasses) {
		t.Fatalf("got %v", err)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	a, _ := NewSampler(s, m, 99, nil)
	b, _ := NewSampler(s, m, 99, nil)
	for i := 0; i < 50; i++ {
		x, y := a.Draw(), b.Draw()
		if x.Class.Name != y.Class.Name {
			t.Fatalf("draw %d diverged: %s vs %s", i, x.Class.Name, y.Class.Name)
		}
		for j := range x.Values {
			if x.Values[j] != y.Values[j] {
				t.Fatalf("draw %d values diverged", i)
			}
		}
	}
}
