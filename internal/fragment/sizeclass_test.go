package fragment

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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
				if sz.Rows[c] != g.Rows[v] || sz.Pages[c] != g.Pages[v] {
					t.Fatalf("fragment %d: class size (%v,%d) != fragment size (%v,%d)",
						v, sz.Rows[c], sz.Pages[c], g.Rows[v], g.Pages[v])
				}
				sumRows += g.Rows[v]
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

// TestSizeClassesConcurrent verifies the lazy build is goroutine-safe and
// returns one shared table.
func TestSizeClassesConcurrent(t *testing.T) {
	s := testStar()
	f, err := Parse(s, "Product.family")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	tables := make([]*SizeClasses, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = g.SizeClasses()
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if tables[i] != tables[0] {
			t.Fatal("concurrent SizeClasses calls returned distinct tables")
		}
	}
}

// mapSizeClasses is the reference size-class build: one map lookup per
// fragment, classes numbered by first appearance.
func mapSizeClasses(g *Geometry) *SizeClasses {
	type sizeKey struct {
		rows  uint64
		pages int64
	}
	sz := &SizeClasses{ClassOf: make([]int32, len(g.Pages))}
	index := map[sizeKey]int32{}
	for v := range g.Pages {
		sz.SumRows += g.Rows[v]
		k := sizeKey{rows: math.Float64bits(g.Rows[v]), pages: g.Pages[v]}
		c, ok := index[k]
		if !ok {
			c = int32(len(sz.Rows))
			index[k] = c
			sz.Rows = append(sz.Rows, g.Rows[v])
			sz.Pages = append(sz.Pages, g.Pages[v])
			sz.Count = append(sz.Count, 0)
		}
		sz.Count[c]++
		sz.ClassOf[v] = c
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
	if math.Float64bits(got.SumRows) != math.Float64bits(want.SumRows) {
		return "SumRows"
	}
	return ""
}

// TestSizeClassesMatchesMapReference pins the run shortcut in
// Geometry.SizeClasses (a fragment equal to its predecessor skips the map)
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
		g := &Geometry{Rows: make([]float64, len(in)), Pages: make([]int64, len(in))}
		for v, s := range in {
			g.Rows[v], g.Pages[v] = s.rows, s.pages
		}
		want := mapSizeClasses(g)
		if field := sameSizeClasses(g.SizeClasses(), want); field != "" {
			t.Errorf("%s: %s differs from the map-only reference", name, field)
		}
	}
}
