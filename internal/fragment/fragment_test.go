package fragment

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/skew"
)

func testStar() *schema.Star {
	return &schema.Star{
		Name: "Retail",
		Fact: schema.FactTable{Name: "Sales", Rows: 24_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "Product", Levels: []schema.Level{
				{Name: "division", Cardinality: 4},
				{Name: "line", Cardinality: 15},
				{Name: "family", Cardinality: 75},
				{Name: "group", Cardinality: 250},
				{Name: "class", Cardinality: 605},
				{Name: "code", Cardinality: 9000},
			}},
			{Name: "Customer", Levels: []schema.Level{
				{Name: "retailer", Cardinality: 99},
				{Name: "store", Cardinality: 900},
			}},
			{Name: "Time", Levels: []schema.Level{
				{Name: "year", Cardinality: 2},
				{Name: "quarter", Cardinality: 8},
				{Name: "month", Cardinality: 24},
			}},
			{Name: "Channel", Levels: []schema.Level{
				{Name: "channel", Cardinality: 9},
			}},
		},
	}
}

func TestNewNormalizesOrder(t *testing.T) {
	s := testStar()
	f, err := New(s,
		schema.AttrRef{Dim: 2, Level: 2},
		schema.AttrRef{Dim: 0, Level: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	attrs := f.Attrs()
	if attrs[0].Dim != 0 || attrs[1].Dim != 2 {
		t.Fatalf("not sorted by dim: %v", attrs)
	}
	if f.Dims() != 2 {
		t.Fatalf("Dims = %d", f.Dims())
	}
}

func TestNewErrors(t *testing.T) {
	s := testStar()
	if _, err := New(s); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := New(s, schema.AttrRef{Dim: 0, Level: 0}, schema.AttrRef{Dim: 0, Level: 5}); !errors.Is(err, ErrDuplicateDim) {
		t.Fatalf("dup dim: %v", err)
	}
	if _, err := New(s, schema.AttrRef{Dim: 9, Level: 0}); !errors.Is(err, ErrBadAttr) {
		t.Fatalf("bad attr: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid input")
		}
	}()
	MustNew(testStar())
}

func TestParse(t *testing.T) {
	s := testStar()
	f, err := Parse(s, "Product.class", "Time.month")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name(s) != "Product.class x Time.month" {
		t.Fatalf("Name = %q", f.Name(s))
	}
	if f.Key() != "0:4|2:2" {
		t.Fatalf("Key = %q", f.Key())
	}
	if _, err := Parse(s, "Nope.x"); !errors.Is(err, ErrBadAttr) {
		t.Fatalf("parse bad: %v", err)
	}
}

func TestAttrLookup(t *testing.T) {
	s := testStar()
	f, _ := Parse(s, "Product.class", "Time.month")
	a, ok := f.Attr(0)
	if !ok || a.Level != 4 {
		t.Fatalf("Attr(0) = %+v %v", a, ok)
	}
	if _, ok := f.Attr(1); ok {
		t.Fatal("Attr(1) should be absent")
	}
}

func TestNumFragments(t *testing.T) {
	s := testStar()
	f, _ := Parse(s, "Product.class", "Time.month")
	if got := f.NumFragments(s); got != 605*24 {
		t.Fatalf("NumFragments = %d", got)
	}
	f1, _ := Parse(s, "Channel.channel")
	if got := f1.NumFragments(s); got != 9 {
		t.Fatalf("1-D NumFragments = %d", got)
	}
}

// valueCombo returns the value combination of the fragment at the given
// logical position: the inverse of FragmentID.
func valueCombo(f *Fragmentation, s *schema.Star, id int64) []int {
	vals := make([]int, len(f.attrs))
	for i := len(f.attrs) - 1; i >= 0; i-- {
		c := int64(s.Cardinality(f.attrs[i]))
		vals[i] = int(id % c)
		id /= c
	}
	return vals
}

func TestFragmentIDRoundTrip(t *testing.T) {
	s := testStar()
	f, _ := Parse(s, "Product.line", "Time.quarter", "Channel.channel")
	n := f.NumFragments(s) // 15*8*9 = 1080
	if n != 1080 {
		t.Fatalf("n = %d", n)
	}
	for id := int64(0); id < n; id++ {
		vals := valueCombo(f, s, id)
		if got := f.FragmentID(s, vals); got != id {
			t.Fatalf("round trip failed: id=%d vals=%v got=%d", id, vals, got)
		}
	}
	// Logical order: last attribute varies fastest.
	v0 := valueCombo(f, s, 0)
	v1 := valueCombo(f, s, 1)
	if v0[2]+1 != v1[2] || v0[0] != v1[0] || v0[1] != v1[1] {
		t.Fatalf("logical order wrong: %v then %v", v0, v1)
	}
}

func TestGeometryUniform(t *testing.T) {
	s := testStar()
	f, _ := Parse(s, "Time.month") // 24 fragments
	g, err := NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumFragments() != 24 {
		t.Fatalf("fragments = %d", g.NumFragments())
	}
	wantRows := 24_000_000.0 / 24
	for c, r := range g.SizeClasses().Rows {
		if math.Abs(r-wantRows) > 1 {
			t.Fatalf("size class %d rows = %g, want %g", c, r, wantRows)
		}
	}
	st := g.Stats()
	if st.CV > 1e-9 {
		t.Fatalf("uniform CV = %g, want 0", st.CV)
	}
	// Total pages must cover the raw volume.
	rawPages := s.Fact.Pages(8192)
	if g.TotalPages < rawPages {
		t.Fatalf("TotalPages %d < raw %d", g.TotalPages, rawPages)
	}
	// And not exceed raw + one page of rounding per fragment.
	if g.TotalPages > rawPages+24 {
		t.Fatalf("TotalPages %d too large vs raw %d", g.TotalPages, rawPages)
	}
}

func TestGeometrySkewed(t *testing.T) {
	s := testStar()
	s.Dimensions[1].SkewTheta = 1.0 // Customer skewed
	f, _ := Parse(s, "Customer.store")
	g, err := NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.CV < 0.5 {
		t.Fatalf("skewed CV = %g, want notable skew", st.CV)
	}
	if st.MaxPages <= st.MinPages {
		t.Fatalf("max %d <= min %d under skew", st.MaxPages, st.MinPages)
	}
	// Mass conservation: expected rows sum to the fact table rows.
	if rows := g.SizeClasses().SumRows; math.Abs(rows-24_000_000) > 1 {
		t.Fatalf("rows sum = %g", rows)
	}
}

func TestGeometryContiguousVsInterleaved(t *testing.T) {
	s := testStar()
	s.Dimensions[0].SkewTheta = 1.0
	f, _ := Parse(s, "Product.family") // aggregated from 9000 codes to 75 families
	gi, err := NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGeometry(s, f, 8192, skew.Contiguous, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Stats().CV >= gc.Stats().CV {
		t.Fatalf("interleaved CV %g should be < contiguous CV %g", gi.Stats().CV, gc.Stats().CV)
	}
}

func TestGeometryErrors(t *testing.T) {
	s := testStar()
	f, _ := Parse(s, "Product.code", "Customer.store") // 8.1M fragments
	if _, err := NewGeometry(s, f, 8192, skew.Interleaved, 1_000_000); !errors.Is(err, ErrTooMany) {
		t.Fatalf("too many: %v", err)
	}
	f2, _ := Parse(s, "Time.year")
	if _, err := NewGeometry(s, f2, 0, skew.Interleaved, 0); err == nil {
		t.Fatal("page size 0 should fail")
	}
}

func TestThresholdsCheck(t *testing.T) {
	s := testStar()
	f, _ := Parse(s, "Time.month")
	g, _ := NewGeometry(s, f, 8192, skew.Interleaved, 0)

	if v := (Thresholds{}).Check(g); v != nil {
		t.Fatalf("no thresholds should pass: %v", v)
	}
	if v := (Thresholds{MaxFragments: 10}).Check(g); v == nil {
		t.Fatal("MaxFragments=10 should exclude 24 fragments")
	}
	if v := (Thresholds{MinFragments: 100}).Check(g); v == nil {
		t.Fatal("MinFragments=100 should exclude 24 fragments")
	}
	// 24M rows * 100B / 8K pages / 24 frags ≈ 12207 pages per fragment.
	if v := (Thresholds{MinAvgFragmentPages: 20000}).Check(g); v == nil {
		t.Fatal("MinAvgFragmentPages=20000 should exclude")
	}
	if v := (Thresholds{MinAvgFragmentPages: 1000}).Check(g); v != nil {
		t.Fatalf("MinAvgFragmentPages=1000 should pass: %v", v)
	}
	s2 := testStar()
	s2.Dimensions[2].SkewTheta = 1.2
	g2, _ := NewGeometry(s2, f, 8192, skew.Contiguous, 0)
	if v := (Thresholds{MaxSizeCV: 0.01}).Check(g2); v == nil {
		t.Fatal("MaxSizeCV should exclude skewed geometry")
	}
}

func TestPreCheckMatchesCheckOnUniform(t *testing.T) {
	s := testStar()
	th := Thresholds{MinAvgFragmentPages: 64, MaxFragments: 500_000}
	for _, f := range Enumerate(s) {
		pre := th.PreCheck(s, f, 8192)
		if f.NumFragments(s) > 500_000 {
			if pre == nil {
				t.Fatalf("%s: precheck should reject count", f.Name(s))
			}
			continue
		}
		g, err := NewGeometry(s, f, 8192, skew.Interleaved, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(s), err)
		}
		full := th.Check(g)
		// PreCheck passing guarantees Check passes (rounding only inflates
		// the materialized average); the converse may differ by <1 page.
		if pre == nil && full != nil {
			t.Fatalf("%s: precheck passed but full check failed: %v", f.Name(s), full)
		}
	}
}

func TestEnumerateCount(t *testing.T) {
	s := testStar()
	got := Enumerate(s)
	// (6+1)(2+1)(3+1)(1+1) - 1 = 167.
	if len(got) != 167 {
		t.Fatalf("Enumerate = %d candidates, want 167", len(got))
	}
	// All keys unique and valid.
	seen := map[string]bool{}
	for _, f := range got {
		if seen[f.Key()] {
			t.Fatalf("duplicate candidate %s", f.Key())
		}
		seen[f.Key()] = true
		if f.Dims() == 0 {
			t.Fatal("empty candidate enumerated")
		}
		for _, a := range f.Attrs() {
			if err := s.CheckAttr(a); err != nil {
				t.Fatalf("invalid attr in %s: %v", f.Key(), err)
			}
		}
	}
}

func TestEnumerateFiltered(t *testing.T) {
	s := testStar()
	th := Thresholds{MinAvgFragmentPages: 64, MaxFragments: 1_000_000}
	kept, excluded := EnumerateFiltered(s, th, 8192)
	if len(kept)+len(excluded) != 167 {
		t.Fatalf("kept %d + excluded %d != 167", len(kept), len(excluded))
	}
	if len(kept) == 0 || len(excluded) == 0 {
		t.Fatalf("expected both kept (%d) and excluded (%d) to be non-empty", len(kept), len(excluded))
	}
	// Every excluded violation carries a reason and its fragmentation.
	for _, v := range excluded {
		if v.Frag == nil || v.Reason == "" {
			t.Fatalf("bad violation %+v", v)
		}
	}
	// Product.code x Customer.store (8.1M fragments) must be excluded.
	for _, k := range kept {
		if k.Key() == "0:5|1:1" {
			t.Fatal("Product.code x Customer.store should be excluded")
		}
	}
}

// Property: fragment IDs round-trip for random small fragmentations.
func TestFragmentIDRoundTripProperty(t *testing.T) {
	s := testStar()
	cands := Enumerate(s)
	f := func(ci uint16, idRaw uint32) bool {
		c := cands[int(ci)%len(cands)]
		n := c.NumFragments(s)
		id := int64(idRaw) % n
		return c.FragmentID(s, valueCombo(c, s, id)) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: geometry mass conservation holds for every enumerable candidate
// under arbitrary skew.
func TestGeometryMassConservation(t *testing.T) {
	s := testStar()
	s.Dimensions[0].SkewTheta = 0.86
	s.Dimensions[1].SkewTheta = 0.5
	for _, f := range Enumerate(s) {
		if f.NumFragments(s) > 100_000 {
			continue
		}
		g, err := NewGeometry(s, f, 8192, skew.Interleaved, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(s), err)
		}
		if rows := g.SizeClasses().SumRows; math.Abs(rows-float64(s.Fact.Rows)) > 2 {
			t.Fatalf("%s: rows sum %g != %d", f.Name(s), rows, s.Fact.Rows)
		}
		if g.TotalPages < s.Fact.Pages(8192) {
			t.Fatalf("%s: pages %d below raw", f.Name(s), g.TotalPages)
		}
	}
}
