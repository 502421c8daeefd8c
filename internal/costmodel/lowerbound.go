package costmodel

import (
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/fragment"
)

// This file implements the branch-and-bound half of the pipeline's
// pruning stage: a cheap, provably admissible lower bound on a
// candidate's cost pair, computed from fragment counts and precomputed
// per-class floors — no geometry, no allocation.
//
// # Derivation
//
// Let pos/xfer be the disk positioning and page-transfer times, R the
// fact-row count, D the disk count, ρ = pageSize/rowSize the maximum
// rows per page, and Γ the fact prefetch granules the evaluator can use:
// the configured PrefetchPages, or else the powers of two 1…PrefetchCap
// that optimizeGranules searches. The evaluator prices every class and
// fragment of one candidate at one granule g ∈ Γ. For one class and one
// fragment v with n_v rows and P_v pages its service time is
//
//	tv[v] = (FactIOs+BitmapIOs)·pos + (FactPages+BitmapPages)·xfer
//	      ≥ FactIOs·pos + FactPages·xfer .
//
// Write φ(x) := x·(1−(1−p)^(n_v/x)) — the Cardenas granules-touched
// form, increasing in x — and note P_v = ⌈n_v·rowSize/pageSize⌉ ≥ n_v/ρ,
// hence G := ⌈P_v/g⌉ ≥ n_v/(ρ·g).
//
//   - indexed branch (p := IndexedSel < 1): FactIOs = touched =
//     G·(1−(1−p)^(n_v/G)) ≥ φ(n_v/(ρ·g)) = n_v·(1−(1−p)^(ρ·g))/(ρ·g),
//     so FactIOs ≥ n_v·cIO(g) with cIO(g) := (1−(1−p)^(ρ·g))/(ρ·g).
//     FactPages = min(touched·g, P_v): touched·g ≥ n_v·(1−(1−p)^(ρ·g))/ρ
//     and P_v ≥ n_v/ρ, hence FactPages ≥ n_v·cPg(g) with
//     cPg(g) := (1−(1−p)^(ρ·g))/ρ.
//   - scan branch (IndexedSel ≥ 1): FactPages = P_v ≥ n_v/ρ ≥ n_v·cPg(g)
//     and FactIOs = ⌈P_v/g⌉ ≥ n_v/(ρ·g) ≥ n_v·cIO(g), since both
//     constants are ≤ their p→1 limits 1/ρ and 1/(ρ·g).
//
// So tv[v] ≥ n_v·(cPg(g)·xfer + cIO(g)·pos) in both branches. Both
// constants are increasing in p, and the evaluator's indexed selectivity
// is a product of a SUBSET of the class's per-predicate selectivities;
// clamping each factor at 1 gives a computable floor
// p_lb = Π min(sel_j, 1) ≤ IndexedSel. Hence, for every fragment,
// tv[v] ≥ n_v·perRow(g) with perRow(g) := cPg(g)·xfer + cIO(g)·pos,
// both constants taken at p_lb.
//
// Access-cost floor: the evaluator's class access cost is
// hp·Σ_v tv[v] ≥ hp·perRow(g)·Σ_v n_v = hp·perRow(g)·R, because the
// geometry's per-dimension share vectors each sum to 1.
//
// Response-time floor: the response expectation averages, over equally
// likely hit patterns, the maximum per-disk busy time, and for EVERY
// pattern max ≥ total/D. A pattern's hit set is a cartesian product of
// per-attribute value sets, so its total is
// Σ_{v hit} tv[v] ≥ perRow(g)·R·Π_d(hit share of dim d), and each dim's
// hit share is floored by the precomputed minimum over the class's
// possible predicate values (1 for unreferenced dims). The floor holds
// pointwise per pattern, so it bounds the exact enumeration and the
// deterministic sampling fallback alike.
//
// The weighted per-class floors are summed at each granule g exactly as
// the evaluator combines class costs, giving acc(g) and resp(g). The
// evaluator's granule is unknown without its geometry, so the bound is
// the minimum over Γ: lbCost = min_g acc(g) and lbResp = min_g resp(g),
// each minimised on its own. cPg rises with g and cIO falls with it, so
// this is never looser than flooring cPg at min Γ and cIO at max Γ
// separately. A small relative and absolute slack absorbs floating-point
// rounding and the evaluator's per-class Duration truncations, keeping
// the bound admissible against the code's computed values
// (property-tested in lowerbound_test.go).

// ancKey indexes the precomputed CoarserEq minimum hit shares: the
// smallest summed share any query value at queryLevel can hit among the
// fragment values at fragLevel of one dimension.
type ancKey struct{ dim, fragLevel, queryLevel int }

// boundState carries the candidate-independent tables of LowerBound,
// built lazily once per Evaluator.
type boundState struct {
	ok        bool
	xfer, pos float64 // page-transfer and positioning times, seconds
	// granules lists the fact prefetch granules (pages) the evaluator
	// can price a candidate at: the configured PrefetchPages, or the
	// powers of two up to PrefetchCap that optimizeGranules searches.
	granules []float64
	rows     float64 // fact-table rows R
	rho      float64 // pageSize/rowSize: max rows per page
	disks    float64
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
		b.granules = []float64{float64(g)}
	} else {
		for g := 1; g <= PrefetchCap; g *= 2 {
			b.granules = append(b.granules, float64(g))
		}
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

// searchGranules is the number of granules optimizeGranules searches:
// the powers of two 1, 2, …, PrefetchCap.
const searchGranules = 9

// LowerBound computes an admissible lower bound on the candidate's cost
// pair: lbCost <= Evaluate(f).AccessCost and lbResp <=
// Evaluate(f).ResponseTime whenever Evaluate(f) succeeds. It touches no
// geometry and allocates nothing after the first call on an Evaluator.
// ok is false when no bound is available for this candidate (e.g. a
// fragmented dimension whose share vector cannot be computed) — such
// candidates must be fully evaluated.
func (e *Evaluator) LowerBound(f *fragment.Fragmentation) (lbCost, lbResp time.Duration, ok bool) {
	b := e.boundTables()
	if !b.ok || !b.bounds(f) {
		return 0, 0, false
	}
	// acc[j] and resp[j] sum the weighted class floors at granule
	// b.granules[j].
	var acc, resp [searchGranules]float64
	for i := range e.cfg.Mix.Classes {
		hp, pLB, hitShare := e.classFloor(b, f, i)
		// touchProb(ρ·g, log1p(−p_lb)) = 1−(1−p_lb)^(ρ·g): exactly 1 at
		// p_lb = 1, 0 at p_lb = 0.
		lq := math.Log1p(-pLB)
		for j, g := range b.granules {
			t := touchProb(b.rho*g, lq)
			base := (t/b.rho*b.xfer + t/(b.rho*g)*b.pos) * b.rows
			acc[j] += e.weights[i] * hp * base
			resp[j] += e.weights[i] * base * hitShare / b.disks
		}
	}
	n := len(b.granules)
	classes := float64(len(e.cfg.Mix.Classes))
	return floorDuration(slices.Min(acc[:n]), classes), floorDuration(slices.Min(resp[:n]), classes), true
}

// bounds reports whether every fragmentation attribute of f has a share
// vector, the precondition of a bound.
func (b *boundState) bounds(f *fragment.Fragmentation) bool {
	for _, a := range f.Attrs() {
		if a.Dim < 0 || a.Dim >= len(b.levelOK) ||
			a.Level < 0 || a.Level >= len(b.levelOK[a.Dim]) || !b.levelOK[a.Dim][a.Level] {
			return false
		}
	}
	return true
}

// classFloor returns the granule-independent factors of mix class i's
// floor on candidate f (see the derivation above): the hit probability
// hp of a fragment, the qualifying-row probability floor p_lb, and the
// product of the per-dimension minimum hit shares.
func (e *Evaluator) classFloor(b *boundState, f *fragment.Fragmentation, i int) (hp, pLB, hitShare float64) {
	cfg := e.cfg
	c := &cfg.Mix.Classes[i]
	hp, pLB, hitShare = 1.0, 1.0, 1.0
	for _, a := range f.Attrs() {
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
	return hp, pLB, hitShare
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
