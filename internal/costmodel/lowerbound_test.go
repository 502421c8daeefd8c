package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/apb"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/workload"
)

// randomBoundStar generates a valid random star schema for the
// admissibility sweep, covering skewed and uniform dimensions and
// non-monotone-looking cardinality ladders.
func randomBoundStar(rng *rand.Rand) *schema.Star {
	nDims := 1 + rng.Intn(4)
	s := &schema.Star{
		Name: "RndLB",
		Fact: schema.FactTable{
			Name:    "F",
			Rows:    int64(10_000 + rng.Intn(1_000_000)),
			RowSize: 20 + rng.Intn(400),
		},
	}
	for d := 0; d < nDims; d++ {
		nLevels := 1 + rng.Intn(4)
		dim := schema.Dimension{Name: fmt.Sprintf("D%d", d)}
		card := 1 + rng.Intn(8)
		for l := 0; l < nLevels; l++ {
			dim.Levels = append(dim.Levels, schema.Level{
				Name:        fmt.Sprintf("l%d", l),
				Cardinality: card,
			})
			card *= 1 + rng.Intn(20)
			if card > 20_000 {
				card = 20_000
			}
		}
		if rng.Intn(3) == 0 {
			dim.SkewTheta = rng.Float64() * 1.5
		}
		s.Dimensions = append(s.Dimensions, dim)
	}
	return s
}

// TestLowerBoundAdmissible is the core property of the pruning stage:
// for randomized schemas, mixes, disk parameters and every enumerable
// candidate, LowerBound must never exceed the evaluator's computed cost
// on either objective. One violation would let the pipeline skip a
// candidate that belongs in the result.
func TestLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		s := randomBoundStar(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid schema: %v", trial, err)
		}
		m, err := workload.RandomMix(s, 1+rng.Intn(6), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		d := apb.Disk(1 + rng.Intn(64))
		if rng.Intn(2) == 0 {
			d.PrefetchPages = 1 << rng.Intn(7)
			d.BitmapPrefetchPages = d.PrefetchPages
		}
		ev, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 20})
		if err != nil {
			t.Fatalf("trial %d: evaluator: %v", trial, err)
		}
		cands := fragment.Enumerate(s)
		// Subsample large enumerations to keep the sweep fast; the trial
		// loop varies schemas far more than extra same-schema candidates.
		if len(cands) > 24 {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:24]
		}
		for _, f := range cands {
			full, err := ev.Evaluate(f)
			if err != nil {
				// Candidates that fail evaluation carry no admissibility
				// obligation; the pipeline never skips unbounded ones.
				continue
			}
			lbCost, lbResp, ok := ev.LowerBound(f)
			if !ok {
				continue
			}
			if lbCost > full.AccessCost {
				t.Fatalf("trial %d %s: lower bound cost %v > actual %v",
					trial, f.Name(s), lbCost, full.AccessCost)
			}
			if lbResp > full.ResponseTime {
				t.Fatalf("trial %d %s: lower bound response %v > actual %v",
					trial, f.Name(s), lbResp, full.ResponseTime)
			}
			checked++
		}
	}
	if checked < 500 {
		t.Fatalf("admissibility sweep only checked %d candidate bounds", checked)
	}
	t.Logf("admissibility: %d candidate bounds checked", checked)
}

// TestLowerBoundAPB1 pins the bound on the paper's APB-1 configuration:
// admissible for every candidate, and strictly positive (a degenerate
// all-zero bound would never prune anything and hide regressions of the
// floor constants).
func TestLowerBoundAPB1(t *testing.T) {
	s := apb.Schema(1_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	d := apb.Disk(16)
	d.PrefetchPages = 8
	d.BitmapPrefetchPages = 8
	ev, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Only threshold survivors matter: the pipeline consults the bound
	// after the pre-check, and the excluded tail (huge fragment counts,
	// sub-granule fragments) is where it is loosest.
	th := fragment.Thresholds{MinAvgFragmentPages: 8, MaxFragments: 1 << 20}
	bounded, tightEnough := 0, 0
	for _, f := range fragment.Enumerate(s) {
		if th.PreCheck(s, f, d.PageSize) != nil {
			continue
		}
		full, err := ev.Evaluate(f)
		if err != nil {
			continue
		}
		lbCost, lbResp, ok := ev.LowerBound(f)
		if !ok {
			t.Fatalf("%s: no bound on the reference schema", f.Name(s))
		}
		if lbCost > full.AccessCost || lbResp > full.ResponseTime {
			t.Fatalf("%s: bound (%v,%v) exceeds actual (%v,%v)",
				f.Name(s), lbCost, lbResp, full.AccessCost, full.ResponseTime)
		}
		if lbCost <= 0 || lbResp <= 0 {
			t.Fatalf("%s: degenerate zero bound", f.Name(s))
		}
		bounded++
		if float64(lbCost) > 0.25*float64(full.AccessCost) {
			tightEnough++
		}
	}
	if bounded == 0 {
		t.Fatal("no candidate evaluated")
	}
	// Usefulness guard, not a correctness property: on the reference
	// configuration the cost bound reaches a quarter of the actual cost
	// for a majority of candidates. If this decays, pruning silently
	// stops firing.
	if tightEnough*2 < bounded {
		t.Fatalf("cost bound above 25%% of actual for only %d of %d candidates", tightEnough, bounded)
	}
}

// twoEndedLowerBound is the bound before it became granule-aware, kept
// as a reference: the page term floored at the smallest usable granule
// and the positioning term at the largest, each on its own.
func twoEndedLowerBound(e *Evaluator, f *fragment.Fragmentation) (lbCost, lbResp time.Duration, ok bool) {
	b := e.boundTables()
	if !b.ok || !b.bounds(f) {
		return 0, 0, false
	}
	gLo, gHi := slices.Min(b.granules), slices.Max(b.granules)
	var acc, resp float64
	for i := range e.cfg.Mix.Classes {
		hp, pLB, hitShare := e.classFloor(b, f, i)
		lq := math.Log1p(-pLB)
		perRow := touchProb(b.rho*gLo, lq)/b.rho*b.xfer + touchProb(b.rho*gHi, lq)/(b.rho*gHi)*b.pos
		base := perRow * b.rows
		acc += e.weights[i] * hp * base
		resp += e.weights[i] * base * hitShare / b.disks
	}
	classes := float64(len(e.cfg.Mix.Classes))
	return floorDuration(acc, classes), floorDuration(resp, classes), true
}

// TestLowerBoundAPB1FreeGranule checks the bound on the default path,
// where the advisor chooses the fact granule: on paper-scale APB-1 the
// bound is admissible and strictly positive for every threshold
// survivor, never looser than the two-ended reference floor, and
// strictly tighter for most of them.
func TestLowerBoundAPB1FreeGranule(t *testing.T) {
	s := apb.Schema(24_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	d := apb.Disk(64)
	ev, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline's default thresholds when the granule is not pinned.
	th := fragment.Thresholds{MinAvgFragmentPages: 16, MaxFragments: 1 << 20}
	bounded, tighter := 0, 0
	for _, f := range fragment.Enumerate(s) {
		if th.PreCheck(s, f, d.PageSize) != nil {
			continue
		}
		full, err := ev.Evaluate(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(s), err)
		}
		lbCost, lbResp, ok := ev.LowerBound(f)
		if !ok {
			t.Fatalf("%s: no bound on the reference schema", f.Name(s))
		}
		if lbCost > full.AccessCost || lbResp > full.ResponseTime {
			t.Fatalf("%s: bound (%v,%v) exceeds actual (%v,%v) at granule %d",
				f.Name(s), lbCost, lbResp, full.AccessCost, full.ResponseTime, full.FactPrefetch)
		}
		if lbCost <= 0 || lbResp <= 0 {
			t.Fatalf("%s: degenerate zero bound", f.Name(s))
		}
		refCost, refResp, _ := twoEndedLowerBound(ev, f)
		if lbCost < refCost || lbResp < refResp {
			t.Fatalf("%s: bound (%v,%v) looser than the two-ended floor (%v,%v)",
				f.Name(s), lbCost, lbResp, refCost, refResp)
		}
		bounded++
		if lbCost > refCost {
			tighter++
		}
	}
	if bounded != 73 {
		t.Fatalf("%d survivors bounded, want 73", bounded)
	}
	if tighter*2 < bounded {
		t.Fatalf("cost bound tighter than the two-ended floor for only %d of %d survivors", tighter, bounded)
	}
	t.Logf("cost bound tighter than the two-ended floor for %d of %d survivors", tighter, bounded)
}

// TestLowerBoundAllocationFree verifies the bound's hot path allocates
// nothing after the tables are built — it runs inside every pipeline
// worker for every surviving candidate.
func TestLowerBoundAllocationFree(t *testing.T) {
	s := apb.Schema(1_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(16), MaxFragments: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	frags := fragment.Enumerate(s)
	if _, _, ok := ev.LowerBound(frags[1]); !ok { // build tables outside the measurement
		t.Fatal("no bound")
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, f := range frags[:8] {
			ev.LowerBound(f)
		}
	})
	if avg > 0 {
		t.Fatalf("LowerBound allocates %.1f times per 8 candidates, want 0", avg)
	}
}
