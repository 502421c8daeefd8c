package bitmap_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apb"
	"repro/internal/bitmap"
	"repro/internal/costmodel"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/skew"
)

// naiveIndexBytes is the per-fragment reference for bitmap.IndexBytes.
func naiveIndexBytes(ix bitmap.Index, g *fragment.Geometry) int64 {
	sz := g.SizeClasses()
	var total int64
	for _, c := range sz.ClassOf {
		total += bitmap.SliceBytesPerFragment(sz.Rows[c]) * int64(ix.Slices)
	}
	return total
}

// naiveIndexPages is the per-fragment reference for bitmap.IndexPages.
func naiveIndexPages(ix bitmap.Index, g *fragment.Geometry) int64 {
	sz := g.SizeClasses()
	var total int64
	for _, c := range sz.ClassOf {
		total += bitmap.PackedPagesPerFragment(sz.Rows[c], ix.Slices, g.PageSize)
	}
	return total
}

// naiveAllocationPages is the per-fragment reference for
// costmodel.AllocationPages: fact pages plus every index's packed pages.
func naiveAllocationPages(g *fragment.Geometry, sc *bitmap.Scheme) []int64 {
	sz := g.SizeClasses()
	out := make([]int64, len(sz.ClassOf))
	for v, c := range sz.ClassOf {
		out[v] = sz.Pages[c]
		for _, ix := range sc.Indexes {
			out[v] += bitmap.PackedPagesPerFragment(sz.Rows[c], ix.Slices, g.PageSize)
		}
	}
	return out
}

// checkSizing asserts that every per-size-class footprint equals its
// per-fragment reference exactly.
func checkSizing(t *testing.T, name string, g *fragment.Geometry, sc *bitmap.Scheme) {
	t.Helper()
	var wantBytes, wantPages int64
	for _, ix := range sc.Indexes {
		b, p := naiveIndexBytes(ix, g), naiveIndexPages(ix, g)
		if got := bitmap.IndexBytes(ix, g); got != b {
			t.Fatalf("%s: IndexBytes(%d slices) = %d, per-fragment %d", name, ix.Slices, got, b)
		}
		if got := bitmap.IndexPages(ix, g); got != p {
			t.Fatalf("%s: IndexPages(%d slices) = %d, per-fragment %d", name, ix.Slices, got, p)
		}
		wantBytes += b
		wantPages += p
	}
	if got := sc.SchemeBytes(g); got != wantBytes {
		t.Fatalf("%s: SchemeBytes = %d, per-fragment %d", name, got, wantBytes)
	}
	if got := sc.SchemePages(g); got != wantPages {
		t.Fatalf("%s: SchemePages = %d, per-fragment %d", name, got, wantPages)
	}
	got := costmodel.AllocationPages(&costmodel.Evaluation{Geometry: g, Scheme: sc})
	if want := naiveAllocationPages(g, sc); !slices.Equal(got, want) {
		t.Fatalf("%s: AllocationPages differs from the per-fragment weights", name)
	}
}

// randomScheme draws up to four indexes with slice counts from zero to a
// Standard index on Product.code.
func randomScheme(rng *rand.Rand) *bitmap.Scheme {
	sc := &bitmap.Scheme{}
	for i := rng.Intn(5); i > 0; i-- {
		sc.Indexes = append(sc.Indexes, bitmap.Index{Slices: rng.Intn(9001), ReadSlices: 1})
	}
	return sc
}

// TestSizingMatchesPerFragment draws 240 random APB-1 geometries — Zipf θ
// from [0, 1.5] on every dimension, both mappings, page sizes of 1 byte,
// 8 KiB and more than any fragment holds — and requires the size-class
// footprints to equal the per-fragment sums bit for bit.
func TestSizingMatchesPerFragment(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var cands []*fragment.Fragmentation
	base := apb.Schema(0)
	for _, f := range fragment.Enumerate(base) {
		if f.NumFragments(base) <= 1<<14 {
			cands = append(cands, f)
		}
	}
	for i := 0; i < 240; i++ {
		rows := 1 + rng.Int63n(5_000_000)
		s := apb.Schema(rows)
		for d := range s.Dimensions {
			s.Dimensions[d].SkewTheta = 1.5 * rng.Float64()
		}
		mapping := []skew.Mapping{skew.Interleaved, skew.Contiguous}[rng.Intn(2)]
		// 1 GiB exceeds the largest fact fragment: 5M rows of 100 bytes.
		pageSize := []int{1, 8192, 1 << 30}[rng.Intn(3)]
		f := cands[rng.Intn(len(cands))]
		g, err := fragment.NewGeometry(s, f, pageSize, mapping, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkSizing(t, f.Name(s), g, randomScheme(rng))
	}
}

// sizingStar is the fuzz target's fact table: an 8-value and a 6-value
// fragmentation attribute, 48 fragments.
func sizingStar() *schema.Star {
	return &schema.Star{
		Name: "Fuzz",
		Fact: schema.FactTable{Name: "F", Rows: 3_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "A", Levels: []schema.Level{{Name: "a", Cardinality: 8}}},
			{Name: "B", Levels: []schema.Level{{Name: "b", Cardinality: 6}}},
		},
	}
}

// FuzzSizeClassPages feeds arbitrary per-value share vectors (one byte per
// value, zero shares included) into a geometry and requires the
// size-class footprints to equal the per-fragment references.
func FuzzSizeClassPages(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(1), uint16(9000), uint16(4))
	f.Add([]byte{255, 0, 3, 3, 0, 255, 7, 1, 2, 2, 2, 0, 9, 9}, uint8(0), uint16(1), uint16(0))
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140}, uint8(2), uint16(17), uint16(605))
	s := sizingStar()
	fr, err := fragment.Parse(s, "A.a", "B.b")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, page uint8, slicesA, slicesB uint16) {
		if len(data) == 0 {
			return
		}
		shares := [][]float64{make([]float64, 8), make([]float64, 6)}
		k := 0
		for _, sh := range shares {
			for i := range sh {
				sh[i] = float64(data[k%len(data)]) / 255
				k++
			}
		}
		pageSize := []int{1, 8192, 1 << 30}[int(page)%3]
		g, err := fragment.NewGeometryFromShares(s, fr, pageSize, shares, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc := &bitmap.Scheme{Indexes: []bitmap.Index{
			{Slices: int(slicesA), ReadSlices: 1},
			{Slices: int(slicesB), ReadSlices: 1},
		}}
		checkSizing(t, "fuzz", g, sc)
	})
}
