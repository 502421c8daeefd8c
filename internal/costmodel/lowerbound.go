package costmodel

import (
	"math"
	"sync"
	"time"

	"repro/internal/fragment"
)

// This file implements the branch-and-bound half of the pipeline's
// pruning stage: a cheap, provably admissible lower bound on a
// candidate's cost pair, computed from fragment counts and precomputed
// per-class floors — no geometry, no allocation, no granule search.
//
// # Derivation
//
// Let pos/xfer be the disk positioning and page-transfer times, R the
// fact-row count, D the disk count, ρ = pageSize/rowSize the maximum
// rows per page, and [gLo, gHi] the prefetch granules the evaluator can
// use (the configured PrefetchPages pins both ends; otherwise the
// granule search ranges over [1, PrefetchCap]). For one class and one
// fragment v with n_v rows and P_v pages the evaluator's service time is
//
//	tv[v] = (FactIOs+BitmapIOs)·pos + (FactPages+BitmapPages)·xfer
//	      ≥ FactIOs·pos + FactPages·xfer .
//
// Write φ_g(x) := x·(1−(1−p)^(n_v·/x)) — the Cardenas granules-touched
// form, increasing in x — and note P_v = ⌈n_v·rowSize/pageSize⌉ ≥ n_v/ρ,
// hence G := ⌈P_v/g⌉ ≥ n_v/(ρ·g) for any granule g ∈ [gLo, gHi].
//
//   - indexed branch (p := IndexedSel < 1): FactIOs = touched =
//     G·(1−(1−p)^(n_v/G)) ≥ φ(n_v/(ρ·g)) = n_v·(1−(1−p)^(ρ·g))/(ρ·g),
//     and (1−(1−p)^(ρg))/(ρg) is decreasing in g, so
//     FactIOs ≥ n_v·cIO with cIO := (1−(1−p)^(ρ·gHi))/(ρ·gHi).
//     FactPages = min(touched·g, P_v): touched·g ≥ n_v·(1−(1−p)^(ρ·g))/ρ
//     (increasing in g, so floored at gLo) and P_v ≥ n_v/ρ, hence
//     FactPages ≥ n_v·cPg with cPg := (1−(1−p)^(ρ·gLo))/ρ.
//   - scan branch (IndexedSel ≥ 1): FactPages = P_v ≥ n_v/ρ ≥ n_v·cPg
//     and FactIOs = ⌈P_v/g⌉ ≥ n_v/(ρ·g) ≥ n_v·cIO, since both constants
//     are ≤ their p→1 limits 1/ρ and 1/(ρ·gHi).
//
// So tv[v] ≥ n_v·(cPg·xfer + cIO·pos) in both branches. Both constants
// are increasing in p, and the evaluator's indexed selectivity is a
// product of a SUBSET of the class's per-predicate selectivities;
// clamping each factor at 1 gives a computable floor
// p_lb = Π min(sel_j, 1) ≤ IndexedSel. Hence, for every fragment,
// tv[v] ≥ n_v·perRow with perRow := cPg(p_lb)·xfer + cIO(p_lb)·pos.
//
// Access-cost floor: the evaluator's class access cost is
// hp·Σ_v tv[v] ≥ hp·perRow·Σ_v n_v = hp·perRow·R, because the geometry's
// per-dimension share vectors each sum to 1.
//
// Response-time floor: the response expectation averages, over equally
// likely hit patterns, the maximum per-disk busy time, and for EVERY
// pattern max ≥ total/D. A pattern's hit set is a cartesian product of
// per-attribute value sets, so its total is
// Σ_{v hit} tv[v] ≥ perRow·R·Π_d(hit share of dim d), and each dim's hit
// share is floored by the precomputed minimum over the class's possible
// predicate values (1 for unreferenced dims). The floor holds pointwise
// per pattern, so it bounds the exact enumeration and the deterministic
// sampling fallback alike.
//
// The weighted per-class floors are combined exactly as the evaluator
// combines class costs; a small relative and absolute slack absorbs
// floating-point rounding and the evaluator's per-class Duration
// truncations, keeping the bound admissible against the code's computed
// values (property-tested in lowerbound_test.go).

// ancKey indexes the precomputed CoarserEq minimum hit shares: the
// smallest summed share any query value at queryLevel can hit among the
// fragment values at fragLevel of one dimension.
type ancKey struct{ dim, fragLevel, queryLevel int }

// boundState carries the candidate-independent tables of LowerBound,
// built lazily once per Evaluator.
type boundState struct {
	ok        bool
	xfer, pos float64 // page-transfer and positioning times, seconds
	granLo    float64 // smallest usable prefetch granule (pages)
	granHi    float64 // largest usable prefetch granule (pages)
	rows      float64 // fact-table rows R
	rho       float64 // pageSize/rowSize: max rows per page
	disks     float64
	// levelOK[d][l] reports the share vector of attribute (d,l) computed
	// successfully. Candidates fragmenting a failed attribute are never
	// bounded: they must be evaluated so the unpruned pipeline's
	// evaluation failure is reproduced bit-for-bit.
	levelOK [][]bool
	// minShare[d][l] is the smallest per-value share of attribute (d,l).
	minShare [][]float64
	// ancMin holds, per (dim, fragLevel, queryLevel) with queryLevel at
	// or above fragLevel, the minimum summed share of the fragment
	// values any single query value selects (fragment elimination case).
	ancMin map[ancKey]float64
}

// boundTables returns the lazily built lower-bound tables.
func (e *Evaluator) boundTables() *boundState {
	e.boundOnce.Do(func() { e.bounds = e.buildBoundTables() })
	return e.bounds
}

func (e *Evaluator) buildBoundTables() *boundState {
	cfg := e.cfg
	b := &boundState{ancMin: map[ancKey]float64{}}
	if cfg.Schema.Fact.RowSize <= 0 || cfg.Disk.PageSize <= 0 || cfg.Disk.Disks <= 0 {
		return b
	}
	if g := cfg.Disk.PrefetchPages; g > 0 {
		b.granLo, b.granHi = float64(g), float64(g)
	} else {
		b.granLo, b.granHi = 1, PrefetchCap
	}
	b.xfer = cfg.Disk.PageTransfer().Seconds()
	b.pos = cfg.Disk.Positioning().Seconds()
	b.rows = float64(cfg.Schema.Fact.Rows)
	b.rho = float64(cfg.Disk.PageSize) / float64(cfg.Schema.Fact.RowSize)
	b.disks = float64(cfg.Disk.Disks)

	b.levelOK = make([][]bool, len(cfg.Schema.Dimensions))
	b.minShare = make([][]float64, len(cfg.Schema.Dimensions))
	shares := make([][][]float64, len(cfg.Schema.Dimensions))
	for d := range cfg.Schema.Dimensions {
		nl := len(cfg.Schema.Dimensions[d].Levels)
		b.levelOK[d] = make([]bool, nl)
		b.minShare[d] = make([]float64, nl)
		shares[d] = make([][]float64, nl)
		for l := 0; l < nl; l++ {
			s, err := e.shares[d][l]()
			if err != nil {
				continue
			}
			b.levelOK[d][l] = true
			shares[d][l] = s
			mn := math.Inf(1)
			for _, v := range s {
				if v < mn {
					mn = v
				}
			}
			if math.IsInf(mn, 1) {
				mn = 0
			}
			b.minShare[d][l] = mn
		}
	}
	// CoarserEq hit-share floors, only for the (dim, level) pairs the mix
	// actually references as predicates.
	for ci := range cfg.Mix.Classes {
		for _, p := range cfg.Mix.Classes[ci].Predicates {
			cq := cfg.Schema.Cardinality(p)
			for lf := p.Level; lf < len(b.levelOK[p.Dim]); lf++ {
				key := ancKey{dim: p.Dim, fragLevel: lf, queryLevel: p.Level}
				if _, done := b.ancMin[key]; done || !b.levelOK[p.Dim][lf] {
					continue
				}
				s := shares[p.Dim][lf]
				sums := make([]float64, cq)
				for v, sv := range s {
					w := Ancestor(v, len(s), cq, cfg.Mapping)
					if w >= 0 && w < cq {
						sums[w] += sv
					}
				}
				mn := math.Inf(1)
				for _, sv := range sums {
					if sv < mn {
						mn = sv
					}
				}
				if math.IsInf(mn, 1) {
					mn = 0
				}
				b.ancMin[key] = mn
			}
		}
	}
	b.ok = true
	return b
}

// LowerBound computes an admissible lower bound on the candidate's cost
// pair: lbCost <= Evaluate(f).AccessCost and lbResp <=
// Evaluate(f).ResponseTime whenever Evaluate(f) succeeds. It touches no
// geometry and allocates nothing after the first call on an Evaluator.
// ok is false when no bound is available for this candidate (e.g. a
// fragmented dimension whose share vector cannot be computed) — such
// candidates must be fully evaluated.
func (e *Evaluator) LowerBound(f *fragment.Fragmentation) (lbCost, lbResp time.Duration, ok bool) {
	b := e.boundTables()
	if !b.ok {
		return 0, 0, false
	}
	attrs := f.Attrs()
	for _, a := range attrs {
		if a.Dim < 0 || a.Dim >= len(b.levelOK) ||
			a.Level < 0 || a.Level >= len(b.levelOK[a.Dim]) || !b.levelOK[a.Dim][a.Level] {
			return 0, 0, false
		}
	}
	cfg := e.cfg
	var accSec, respSec float64
	for i := range cfg.Mix.Classes {
		c := &cfg.Mix.Classes[i]
		hp, pLB, hitShare := 1.0, 1.0, 1.0
		for _, a := range attrs {
			p, has := c.Predicate(a.Dim)
			if !has {
				continue // unreferenced: every value hit, share product 1
			}
			cq := float64(cfg.Schema.Cardinality(p))
			if p.Level <= a.Level {
				hp /= cq
				hitShare *= b.ancMin[ancKey{dim: a.Dim, fragLevel: a.Level, queryLevel: p.Level}]
			} else {
				cf := float64(cfg.Schema.Cardinality(a))
				hp /= cf
				if sel := cf / cq; sel < 1 {
					pLB *= sel
				}
				hitShare *= b.minShare[a.Dim][a.Level]
			}
		}
		for _, p := range c.Predicates {
			if _, onFrag := f.Attr(p.Dim); !onFrag {
				pLB /= float64(cfg.Schema.Cardinality(p))
			}
		}
		base := b.perRowFloor(pLB) * b.rows
		accSec += e.weights[i] * hp * base
		respSec += e.weights[i] * base * hitShare / b.disks
	}
	classes := float64(len(cfg.Mix.Classes))
	return floorDuration(accSec, classes), floorDuration(respSec, classes), true
}

// perRowFloor is the minimum expected service time (seconds) one
// qualifying-probability-p fact row can contribute:
// cPg·xfer + cIO·pos with cPg = (1−(1−p)^(ρ·gLo))/ρ pages per row and
// cIO = (1−(1−p)^(ρ·gHi))/(ρ·gHi) positioning operations per row (see
// the derivation above). Both powers are taken with touchProb, the form
// granulesTouched prices fragments with.
func (b *boundState) perRowFloor(p float64) float64 {
	if p <= 0 || b.rho <= 0 {
		return 0
	}
	onePg, oneIO := 1.0, 1.0
	if p < 1 {
		lq := math.Log1p(-p)
		onePg = touchProb(b.rho*b.granLo, lq)
		oneIO = touchProb(b.rho*b.granHi, lq)
	}
	return onePg/b.rho*b.xfer + oneIO/(b.rho*b.granHi)*b.pos
}

// floorDuration converts a seconds floor to nanoseconds with slack for
// floating-point rounding and the evaluator's per-class Duration
// truncations (each class truncates twice, losing < 2 ns).
func floorDuration(sec, classes float64) time.Duration {
	ns := sec*1e9*(1-1e-8) - (100 + 4*classes)
	if ns <= 0 {
		return 0
	}
	return time.Duration(ns)
}

// boundStateHolder is embedded in Evaluator via fields; declared here to
// keep the sync dependency local to this file's concern.
type boundStateHolder struct {
	boundOnce sync.Once
	bounds    *boundState
}
