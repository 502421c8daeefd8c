package costmodel

// Chaos tests for the evaluator's panic-safety discipline: a worker that
// recovers a mid-evaluation panic calls Scratch.Reset before pricing the
// next candidate, and the poisoned buffers must not be able to change a
// single later result.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apb"
	"repro/internal/fragment"
)

// TestScratchResetAfterPanicPoisoning simulates the worst state a panic
// can abandon a worker-owned scratch in — every buffer scribbled with
// garbage, cursors out of range, accumulators full of NaN — then applies
// the pipeline's recovery discipline (Reset) and requires every
// subsequent evaluation to be bit-identical to a fresh evaluator's.
func TestScratchResetAfterPanicPoisoning(t *testing.T) {
	s := apb.Schema(500_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(8)})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the first dozen evaluable candidates (oversized ones the
	// pipeline would exclude are skipped): enough to cover distinct
	// shapes without turning the 4-pass comparison into a minute of CPU.
	sc := e.NewScratch(nil)
	var cands []*fragment.Fragmentation
	var want []*Evaluation
	for _, f := range fragment.Enumerate(s) {
		ev, err := e.EvaluateWith(sc, f)
		if err != nil {
			continue
		}
		cands = append(cands, f)
		want = append(want, ev)
		if len(cands) == 12 {
			break
		}
	}
	if len(cands) < 4 {
		t.Fatalf("schema too small: %d evaluable candidates", len(cands))
	}

	rng := rand.New(rand.NewSource(99))
	poison := func(sc *Scratch) {
		for i := range sc.busy {
			sc.busy[i] = math.NaN()
		}
		for i := range sc.rbusy {
			sc.rbusy[i] = math.Inf(1)
		}
		for i := range sc.cls {
			sc.cls[i] = sizeClassCost{w: math.NaN(), sel: -1}
		}
		for i := range sc.classBM {
			sc.classBM[i] = rng.Int63() - rng.Int63()
		}
		for i := range sc.weights {
			sc.weights[i] = -rng.Int63()
		}
		for i := range sc.idx {
			sc.idx[i] = rng.Int()
			sc.choice[i] = rng.Int()
		}
		sc.touched = append(sc.touched[:0], rng.Int(), rng.Int())
		for i := range sc.plans {
			sc.plans[i] = ClassPlan{HitProb: math.NaN(), RowSel: -1}
		}
		sc.rng.Seed(int64(rng.Int()))
	}

	for trial := 0; trial < 2; trial++ {
		poison(sc)
		sc.Reset()
		for i, f := range cands {
			got, err := e.EvaluateWith(sc, f)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, f.Name(s), err)
			}
			if got.AccessCost != want[i].AccessCost || got.ResponseTime != want[i].ResponseTime {
				t.Fatalf("trial %d %s: poisoned scratch leaked into results: %v/%v vs %v/%v",
					trial, f.Name(s), got.AccessCost, got.ResponseTime,
					want[i].AccessCost, want[i].ResponseTime)
			}
			// The allocation weights come from the scratch too.
			if got.Placement.Scheme != want[i].Placement.Scheme ||
				!slices.Equal(got.Placement.DiskOf, want[i].Placement.DiskOf) ||
				!slices.Equal(got.Placement.Load, want[i].Placement.Load) ||
				got.BitmapPagesTotal != want[i].BitmapPagesTotal {
				t.Fatalf("trial %d %s: poisoned scratch leaked into the placement", trial, f.Name(s))
			}
		}
	}
}
