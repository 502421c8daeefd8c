package fragment

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
	"repro/internal/skew"
)

// TestSizeClasses checks the size-class table invariants on a uniform and
// a skewed geometry: exact membership (every fragment's size bitwise
// equals its class's size), first-appearance numbering, counts summing to
// the fragment count, and a SumRows bitwise equal to the in-order
// per-fragment accumulation the table replaces.
func TestSizeClasses(t *testing.T) {
	uniform := testStar()
	skewed := testStar()
	skewed.Dimensions[0].SkewTheta = 0.86
	for _, tc := range []struct {
		name       string
		star       *schema.Star
		minClasses int
		maxClasses int
	}{
		{"uniform", uniform, 1, 1},
		{"skewed", skewed, 2, 1 << 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse(tc.star, "Product.line", "Time.quarter")
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGeometry(tc.star, f, 8192, skew.Interleaved, 0)
			if err != nil {
				t.Fatal(err)
			}
			sz := g.SizeClasses()
			rows, pages := denseSizes(tc.star, f, 8192, g.AttrShares)
			n := int(g.NumFragments())
			if len(sz.ClassOf) != n {
				t.Fatalf("ClassOf length %d, want %d", len(sz.ClassOf), n)
			}
			k := sz.NumClasses()
			if k < tc.minClasses || k > tc.maxClasses {
				t.Fatalf("%d size classes, want in [%d,%d]", k, tc.minClasses, tc.maxClasses)
			}
			if len(sz.Pages) != k || len(sz.Count) != k {
				t.Fatalf("parallel arrays disagree: rows=%d pages=%d count=%d",
					k, len(sz.Pages), len(sz.Count))
			}
			var sumRows float64
			var total int64
			seen := make([]bool, k)
			next := int32(0)
			for v := 0; v < n; v++ {
				c := sz.ClassOf[v]
				if c < 0 || int(c) >= k {
					t.Fatalf("fragment %d: class %d out of range", v, c)
				}
				// First-appearance numbering: a class id first occurs only
				// after every smaller id has.
				if !seen[c] {
					if c != next {
						t.Fatalf("fragment %d introduces class %d, want %d", v, c, next)
					}
					seen[c] = true
					next++
				}
				if sz.Rows[c] != rows[v] || sz.Pages[c] != pages[v] {
					t.Fatalf("fragment %d: class size (%v,%d) != fragment size (%v,%d)",
						v, sz.Rows[c], sz.Pages[c], rows[v], pages[v])
				}
				sumRows += rows[v]
			}
			for _, c := range sz.Count {
				total += c
			}
			if total != int64(n) {
				t.Fatalf("class counts sum to %d, want %d", total, n)
			}
			if sz.SumRows != sumRows {
				t.Fatalf("SumRows %v != in-order sum %v", sz.SumRows, sumRows)
			}
		})
	}
}

// mapSizeClasses is the reference size-class build: one map lookup per
// fragment, classes numbered by first appearance, and a run counted at
// every fragment whose class differs from its predecessor's.
func mapSizeClasses(rows []float64, pages []int64) *SizeClasses {
	sz := &SizeClasses{ClassOf: make([]int32, len(pages))}
	index := map[sizeKey]int32{}
	for v := range pages {
		sz.SumRows += rows[v]
		k := sizeKey{rows: math.Float64bits(rows[v]), pages: pages[v]}
		c, ok := index[k]
		if !ok {
			c = int32(len(sz.Rows))
			index[k] = c
			sz.Rows = append(sz.Rows, rows[v])
			sz.Pages = append(sz.Pages, pages[v])
			sz.Count = append(sz.Count, 0)
		}
		sz.Count[c]++
		sz.ClassOf[v] = c
		if v == 0 || sz.ClassOf[v-1] != c {
			sz.Runs++
		}
	}
	return sz
}

// sameSizeClasses reports the first field in which two tables differ,
// comparing floats by bit pattern.
func sameSizeClasses(got, want *SizeClasses) string {
	if !slices.Equal(got.ClassOf, want.ClassOf) {
		return "ClassOf"
	}
	if len(got.Rows) != len(want.Rows) {
		return "Rows"
	}
	for c := range got.Rows {
		if math.Float64bits(got.Rows[c]) != math.Float64bits(want.Rows[c]) {
			return "Rows"
		}
	}
	if !slices.Equal(got.Pages, want.Pages) {
		return "Pages"
	}
	if !slices.Equal(got.Count, want.Count) {
		return "Count"
	}
	if got.Runs != want.Runs {
		return "Runs"
	}
	if math.Float64bits(got.SumRows) != math.Float64bits(want.SumRows) {
		return "SumRows"
	}
	return ""
}

// TestSizeClassesMatchesMapReference pins the run shortcut in
// classifier.add (a fragment equal to its predecessor skips the map)
// to the map-only build, bit for bit, on inputs that defeat the shortcut
// and on random geometries with few distinct sizes.
func TestSizeClassesMatchesMapReference(t *testing.T) {
	type size struct {
		rows  float64
		pages int64
	}
	a, b, c := size{100, 2}, size{50, 1}, size{100, 3}
	cases := map[string][]size{
		"ABAB":                     {a, b, a, b},
		"AABA":                     {a, a, b, a},
		"all distinct":             {a, b, c, {7, 1}, {0, 0}},
		"all equal":                {a, a, a, a, a},
		"single":                   {b},
		"rows equal, pages differ": {a, c, a, c, c},
		// ±0 and NaN differ from their neighbours by bit pattern only.
		"signed zero": {{0, 0}, {math.Copysign(0, -1), 0}, {0, 0}},
		"NaN":         {{math.NaN(), 1}, {math.NaN(), 1}, a, {math.NaN(), 1}},
		"empty":       {},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		pool := make([]size, 1+rng.Intn(4))
		for j := range pool {
			pool[j] = size{float64(rng.Intn(3)) * 0.5, int64(rng.Intn(2))}
		}
		in := make([]size, 1+rng.Intn(40))
		for j := range in {
			// Runs of random length, drawn from a small pool.
			if j == 0 || rng.Intn(3) == 0 {
				in[j] = pool[rng.Intn(len(pool))]
			} else {
				in[j] = in[j-1]
			}
		}
		cases[fmt.Sprintf("random %d", i)] = in
	}
	for name, in := range cases {
		rows, pages := make([]float64, len(in)), make([]int64, len(in))
		var got SizeClasses
		b := newClassifier(&got, int64(len(in)))
		for v, s := range in {
			rows[v], pages[v] = s.rows, s.pages
			b.add(s.rows, s.pages)
		}
		if field := sameSizeClasses(&got, mapSizeClasses(rows, pages)); field != "" {
			t.Errorf("%s: %s differs from the map-only reference", name, field)
		}
	}
}

// denseSizes is the reference fragment sizing: the per-fragment loop the
// size-class table replaced. Fragment id is decoded into its value
// combination (last attribute fastest), rows = R·Πshares in attribute
// order, and pages = ⌈rows·rowSize/pageSize⌉, at least 1 for a fragment
// with rows.
func denseSizes(s *schema.Star, f *Fragmentation, pageSize int, shares [][]float64) ([]float64, []int64) {
	n := f.NumFragments(s)
	rows, pages := make([]float64, n), make([]int64, n)
	combo := make([]int, len(shares))
	for id := int64(0); id < n; id++ {
		rest := id
		for i := len(shares) - 1; i >= 0; i-- {
			combo[i] = int(rest % int64(len(shares[i])))
			rest /= int64(len(shares[i]))
		}
		share := 1.0
		for i, v := range combo {
			share *= shares[i][v]
		}
		rows[id] = float64(s.Fact.Rows) * share
		pages[id] = int64(math.Ceil(rows[id] * float64(s.Fact.RowSize) / float64(pageSize)))
		if pages[id] < 1 && rows[id] > 0 {
			pages[id] = 1
		}
	}
	return rows, pages
}

// denseStats is the reference size summary over per-fragment pages.
func denseStats(pages []int64) Stats {
	st := Stats{Fragments: int64(len(pages))}
	if len(pages) == 0 {
		return st
	}
	st.MinPages, st.MaxPages = pages[0], pages[0]
	var sum float64
	for _, p := range pages {
		st.MinPages = min(st.MinPages, p)
		st.MaxPages = max(st.MaxPages, p)
		st.TotalPages += p
		sum += float64(p)
	}
	st.AvgPages = sum / float64(len(pages))
	var ss float64
	for _, p := range pages {
		d := float64(p) - st.AvgPages
		ss += d * d
	}
	if st.AvgPages > 0 {
		st.CV = math.Sqrt(ss/float64(len(pages))) / st.AvgPages
	}
	return st
}

// checkGeometrySizes builds the geometry of f and compares every
// fragment's size, TotalPages, SumRows and Stats with the dense
// reference.
func checkGeometrySizes(t *testing.T, s *schema.Star, f *Fragmentation, pageSize int, mapping skew.Mapping) {
	t.Helper()
	g, err := NewGeometry(s, f, pageSize, mapping, 0)
	if err != nil {
		t.Fatalf("%s: %v", f.Key(), err)
	}
	rows, pages := denseSizes(s, f, pageSize, g.AttrShares)
	sz := g.SizeClasses()
	if g.NumFragments() != int64(len(pages)) {
		t.Fatalf("%s: %d fragments, want %d", f.Key(), g.NumFragments(), len(pages))
	}
	var sumRows float64
	count := make([]int64, sz.NumClasses())
	for v, c := range sz.ClassOf {
		if sz.Rows[c] != rows[v] || sz.Pages[c] != pages[v] {
			t.Fatalf("%s page %d: fragment %d in class %d sized (%v,%d), want (%v,%d)",
				f.Key(), pageSize, v, c, sz.Rows[c], sz.Pages[c], rows[v], pages[v])
		}
		sumRows += rows[v]
		count[c]++
	}
	if !slices.Equal(sz.Count, count) {
		t.Fatalf("%s page %d: class counts %v, want %v", f.Key(), pageSize, sz.Count, count)
	}
	if sz.SumRows != sumRows {
		t.Fatalf("%s page %d: SumRows %v, want %v", f.Key(), pageSize, sz.SumRows, sumRows)
	}
	want := denseStats(pages)
	if g.TotalPages != want.TotalPages {
		t.Fatalf("%s page %d: TotalPages %d, want %d", f.Key(), pageSize, g.TotalPages, want.TotalPages)
	}
	if got := g.Stats(); got != want {
		t.Fatalf("%s page %d: Stats %+v, want %+v", f.Key(), pageSize, got, want)
	}
}

// randomSizingStar generates a star of 1–4 dimensions with small
// cardinality ladders; each dimension is uniform or skewed.
func randomSizingStar(rng *rand.Rand) *schema.Star {
	s := &schema.Star{Name: "Rnd", Fact: schema.FactTable{Name: "F", RowSize: 1 + rng.Intn(400)}}
	switch rng.Intn(3) {
	case 0:
		s.Fact.Rows = int64(rng.Intn(100)) // includes empty tables and sub-row fragments
	case 1:
		s.Fact.Rows = int64(rng.Intn(1_000_000))
	default:
		s.Fact.Rows = rng.Int63n(1 << 34)
	}
	for d := 0; d < 1+rng.Intn(4); d++ {
		dim := schema.Dimension{Name: fmt.Sprintf("D%d", d)}
		card := 1 + rng.Intn(6)
		for l := 0; l < 1+rng.Intn(3); l++ {
			dim.Levels = append(dim.Levels, schema.Level{Name: fmt.Sprintf("l%d", l), Cardinality: card})
			card = min(card*(1+rng.Intn(5)), 200)
		}
		if rng.Intn(2) == 0 {
			dim.SkewTheta = rng.Float64() * 1.5
		}
		s.Dimensions = append(s.Dimensions, dim)
	}
	return s
}

// randomSizingFrag picks one random level on up to four random
// dimensions, possibly none, keeping at most 20,000 fragments.
func randomSizingFrag(rng *rand.Rand, s *schema.Star) *Fragmentation {
	var attrs []schema.AttrRef
	for _, d := range rng.Perm(len(s.Dimensions))[:rng.Intn(len(s.Dimensions)+1)] {
		attrs = append(attrs, schema.AttrRef{Dim: d, Level: rng.Intn(len(s.Dimensions[d].Levels))})
	}
	slices.SortFunc(attrs, func(a, b schema.AttrRef) int { return a.Dim - b.Dim })
	for len(attrs) > 0 && newFragmentation(attrs).NumFragments(s) > 20_000 {
		attrs = attrs[1:]
	}
	return newFragmentation(attrs)
}

var sizingPageSizes = []int{1, 8192, 1 << 30}

// TestGeometryMatchesDenseReference pins the size-class geometry to the
// per-fragment sizing loop on random schemas: uniform and skewed
// dimensions, both mappings, 0–4 attributes and extreme page sizes.
func TestGeometryMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		s := randomSizingStar(rng)
		f := randomSizingFrag(rng, s)
		for _, mapping := range []skew.Mapping{skew.Interleaved, skew.Contiguous} {
			for _, pageSize := range sizingPageSizes {
				checkGeometrySizes(t, s, f, pageSize, mapping)
			}
		}
	}
}

// FuzzGeometrySizes is TestGeometryMatchesDenseReference driven by the
// fuzzer: the seed shapes the schema and fragmentation, the other inputs
// set the fact rows, the skew of every skewed dimension, the page size
// and the mapping.
func FuzzGeometrySizes(f *testing.F) {
	f.Add(int64(1), int64(24_000_000), 0.86, uint8(1), false)
	f.Add(int64(2), int64(7), 0.0, uint8(0), true)
	f.Add(int64(3), int64(1<<40), 1.4, uint8(2), true)
	f.Fuzz(func(t *testing.T, seed, rows int64, theta float64, page uint8, contiguous bool) {
		if rows < 0 || rows > 1<<50 || !(theta >= 0 && theta <= 3) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := randomSizingStar(rng)
		s.Fact.Rows = rows
		for d := range s.Dimensions {
			if s.Dimensions[d].SkewTheta > 0 {
				s.Dimensions[d].SkewTheta = theta
			}
		}
		mapping := skew.Interleaved
		if contiguous {
			mapping = skew.Contiguous
		}
		checkGeometrySizes(t, s, randomSizingFrag(rng, s), sizingPageSizes[int(page)%len(sizingPageSizes)], mapping)
	})
}
