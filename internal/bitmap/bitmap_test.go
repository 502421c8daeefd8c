package bitmap

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/skew"
	"repro/internal/workload"
)

func testStar() *schema.Star {
	return &schema.Star{
		Name: "Retail",
		Fact: schema.FactTable{Name: "Sales", Rows: 24_000_000, RowSize: 100},
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
		t.Fatal(err)
	}
	return a
}

func testMix(t *testing.T, s *schema.Star) *workload.Mix {
	t.Helper()
	return &workload.Mix{Classes: []workload.Class{
		{Name: "Q1", Predicates: []schema.AttrRef{attr(t, s, "Product.code"), attr(t, s, "Time.month")}, Weight: 2},
		{Name: "Q2", Predicates: []schema.AttrRef{attr(t, s, "Channel.channel")}, Weight: 1},
		{Name: "Q3", Predicates: []schema.AttrRef{attr(t, s, "Product.line")}, Weight: 1},
	}}
}

func TestKindString(t *testing.T) {
	if Standard.String() != "standard" || HierEncoded.String() != "encoded" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown = %q", Kind(9).String())
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 9: 4, 605: 10, 9000: 14}
	for card, want := range cases {
		if got := bitsFor(card); got != want {
			t.Fatalf("bitsFor(%d) = %d, want %d", card, got, want)
		}
	}
}

func TestSlicesFor(t *testing.T) {
	s, r := slicesFor(605, Standard)
	if s != 605 || r != 1 {
		t.Fatalf("standard: %d,%d", s, r)
	}
	s, r = slicesFor(605, HierEncoded)
	if s != 10 || r != 10 {
		t.Fatalf("encoded: %d,%d", s, r)
	}
	s, r = slicesFor(605, Kind(42))
	if s != 0 || r != 0 {
		t.Fatalf("unknown kind: %d,%d", s, r)
	}
}

func TestResolved(t *testing.T) {
	s := testStar()
	f, _ := fragment.Parse(s, "Product.class") // dim 0 level 1
	// Predicate on Product.line (level 0, coarser): resolved by elimination.
	if !Resolved(f, attr(t, s, "Product.line")) {
		t.Fatal("coarser predicate should be resolved")
	}
	// Same level: resolved.
	if !Resolved(f, attr(t, s, "Product.class")) {
		t.Fatal("same-level predicate should be resolved")
	}
	// Finer: not resolved.
	if Resolved(f, attr(t, s, "Product.code")) {
		t.Fatal("finer predicate should NOT be resolved")
	}
	// Other dimension: not resolved.
	if Resolved(f, attr(t, s, "Time.month")) {
		t.Fatal("other-dimension predicate should NOT be resolved")
	}
}

func TestPlanSchemeSelectsKinds(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	f, _ := fragment.Parse(s, "Time.month") // resolves Time.month predicate
	sc, err := PlanScheme(s, f, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Needed: Product.code (9000 → encoded), Channel.channel (9 → standard),
	// Product.line (15 → standard). Time.month resolved.
	if len(sc.Indexes) != 3 {
		t.Fatalf("indexes = %d (%+v)", len(sc.Indexes), sc.Indexes)
	}
	if ix, ok := sc.Index(attr(t, s, "Product.code")); !ok || ix.Kind != HierEncoded || ix.Slices != 14 {
		t.Fatalf("Product.code index = %+v, %v", ix, ok)
	}
	if ix, ok := sc.Index(attr(t, s, "Channel.channel")); !ok || ix.Kind != Standard || ix.Slices != 9 || ix.ReadSlices != 1 {
		t.Fatalf("Channel index = %+v, %v", ix, ok)
	}
	if _, ok := sc.Index(attr(t, s, "Time.month")); ok {
		t.Fatal("Time.month should have no bitmap (resolved by fragmentation)")
	}
	// Deterministic order: by (dim, level).
	if sc.Indexes[0].Attr.Dim != 0 || sc.Indexes[0].Attr.Level != 0 {
		t.Fatalf("order: %+v", sc.Indexes)
	}
}

func TestPlanSchemeExclusion(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	f, _ := fragment.Parse(s, "Time.month")
	sc, err := PlanScheme(s, f, m, Options{Exclude: []schema.AttrRef{attr(t, s, "Product.code")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Index(attr(t, s, "Product.code")); ok {
		t.Fatal("excluded attribute still indexed")
	}
	if len(sc.Indexes) != 2 {
		t.Fatalf("indexes = %d", len(sc.Indexes))
	}
}

func TestPlanSchemeThreshold(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	f, _ := fragment.Parse(s, "Time.year")
	// Threshold 10: line (15) becomes encoded too.
	sc, err := PlanScheme(s, f, m, Options{CardinalityThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := sc.Index(attr(t, s, "Product.line"))
	if !ok || ix.Kind != HierEncoded {
		t.Fatalf("line with threshold 10 = %+v", ix)
	}
	if _, err := PlanScheme(s, f, m, Options{CardinalityThreshold: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative threshold: %v", err)
	}
}

func TestPlanSchemeCostBased(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	f, _ := fragment.Parse(s, "Time.year")
	sc, err := PlanScheme(s, f, m, Options{CostBased: true})
	if err != nil {
		t.Fatal(err)
	}
	// Channel (9): standard = 9+1=10 vs encoded 4+4=8 → encoded wins under
	// the cost proxy.
	ix, ok := sc.Index(attr(t, s, "Channel.channel"))
	if !ok || ix.Kind != HierEncoded {
		t.Fatalf("cost-based channel = %+v", ix)
	}
	// Time.year (2): standard 2+1=3 vs encoded 1+1=2 → encoded.
	// Product.code (9000): encoded obviously.
	ix, _ = sc.Index(attr(t, s, "Product.code"))
	if ix.Kind != HierEncoded {
		t.Fatalf("cost-based code = %+v", ix)
	}
}

func TestSliceSizing(t *testing.T) {
	if got := SliceBytesPerFragment(0); got != 0 {
		t.Fatalf("0 rows = %d bytes", got)
	}
	if got := SliceBytesPerFragment(8); got != 1 {
		t.Fatalf("8 rows = %d bytes", got)
	}
	if got := SliceBytesPerFragment(9); got != 2 {
		t.Fatalf("9 rows = %d bytes", got)
	}
	if got := SlicePagesPerFragment(8192*8, 8192); got != 1 {
		t.Fatalf("64Ki rows = %d pages", got)
	}
	if got := SlicePagesPerFragment(8192*8+1, 8192); got != 2 {
		t.Fatalf("64Ki+1 rows = %d pages", got)
	}
	if got := SlicePagesPerFragment(100, 0); got != 0 {
		t.Fatalf("pageSize 0 = %d", got)
	}
	if got := SlicePagesPerFragment(0, 8192); got != 0 {
		t.Fatalf("0 rows pages = %d", got)
	}
}

func TestIndexAndSchemeSizing(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	f, _ := fragment.Parse(s, "Time.month")
	g, err := fragment.NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := PlanScheme(s, f, m, Options{})

	// Standard index on Channel (9 slices): total bits = 9 * 24M = 27MB.
	ix, _ := sc.Index(attr(t, s, "Channel.channel"))
	bytes := IndexBytes(ix, g)
	want := int64(9) * 24_000_000 / 8
	if bytes < want || bytes > want+24*9*8 { // rounding per fragment+slice
		t.Fatalf("channel IndexBytes = %d, want ≈ %d", bytes, want)
	}
	pages := IndexPages(ix, g)
	if pages < bytes/8192 || pages > bytes/8192+24*9+9 {
		t.Fatalf("channel IndexPages = %d for %d bytes", pages, bytes)
	}
	// Encoded index on Product.code: 14 slices ≪ 9000 standard slices.
	ixCode, _ := sc.Index(attr(t, s, "Product.code"))
	if IndexBytes(ixCode, g) >= int64(9000)*24_000_000/8 {
		t.Fatal("encoded index should be far smaller than standard would be")
	}
	// Scheme totals = sum of parts.
	var sum int64
	for _, ix := range sc.Indexes {
		sum += IndexBytes(ix, g)
	}
	if got := sc.SchemeBytes(g); got != sum {
		t.Fatalf("SchemeBytes = %d, want %d", got, sum)
	}
	var sumP int64
	for _, ix := range sc.Indexes {
		sumP += IndexPages(ix, g)
	}
	if got := sc.SchemePages(g); got != sumP {
		t.Fatalf("SchemePages = %d, want %d", got, sumP)
	}
}

// Property: encoded storage never exceeds standard storage for card >= 2,
// and standard read cost never exceeds encoded read cost.
func TestKindTradeoffProperty(t *testing.T) {
	f := func(cardRaw uint16) bool {
		card := int(cardRaw%20000) + 2
		ss, sr := slicesFor(card, Standard)
		es, er := slicesFor(card, HierEncoded)
		return es <= ss && sr <= er
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: scheme never plans an index for a resolved or excluded
// predicate, and plans at most one index per attribute.
func TestPlanSchemeInvariants(t *testing.T) {
	s := testStar()
	m := testMix(t, s)
	for _, f := range fragment.Enumerate(s) {
		sc, err := PlanScheme(s, f, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[schema.AttrRef]bool{}
		for _, ix := range sc.Indexes {
			if Resolved(f, ix.Attr) {
				t.Fatalf("%s: planned index on resolved attr %s", f.Name(s), s.AttrName(ix.Attr))
			}
			if seen[ix.Attr] {
				t.Fatalf("%s: duplicate index on %s", f.Name(s), s.AttrName(ix.Attr))
			}
			seen[ix.Attr] = true
		}
	}
}
