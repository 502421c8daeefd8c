package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/costmodel"
)

// ErrBadGen reports invalid query-generator inputs.
var ErrBadGen = errors.New("sim: invalid query generator input")

// QueryGen draws concrete query executions against an evaluated
// fragmentation candidate: it samples a query class by workload weight,
// binds concrete predicate values, derives the exact set of hit fragments
// under the candidate (with the same hierarchy mapping the cost model's
// skew aggregation uses), and prices each hit fragment with the shared
// costmodel.FragmentCost primitives.
type QueryGen struct {
	cfg   *costmodel.Config
	ev    *costmodel.Evaluation
	plans []costmodel.ClassPlan
	cumW  []float64
	rng   *rand.Rand
}

// NewQueryGen builds a generator with a deterministic seed.
func NewQueryGen(cfg *costmodel.Config, ev *costmodel.Evaluation, seed int64) (*QueryGen, error) {
	return NewQueryGenRand(cfg, ev, rand.New(rand.NewSource(seed)))
}

// NewQueryGenRand builds a generator drawing from an explicit source.
// The seed-taking entry points are thin wrappers over the Rand ones;
// passing the source makes the randomness dependency explicit, so tests
// and composed experiments control exactly one stream per concern
// instead of deriving streams by seed offsets.
func NewQueryGenRand(cfg *costmodel.Config, ev *costmodel.Evaluation, rng *rand.Rand) (*QueryGen, error) {
	if cfg == nil || ev == nil || ev.Geometry == nil || ev.Placement == nil {
		return nil, fmt.Errorf("%w: nil config or evaluation", ErrBadGen)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil random source", ErrBadGen)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	qg := &QueryGen{cfg: cfg, ev: ev, rng: rng}
	weights := cfg.Mix.NormalizedWeights()
	qg.cumW = make([]float64, len(weights))
	var run float64
	for i, w := range weights {
		run += w
		qg.cumW[i] = run
	}
	qg.cumW[len(qg.cumW)-1] = 1
	qg.plans = make([]costmodel.ClassPlan, len(cfg.Mix.Classes))
	for i := range cfg.Mix.Classes {
		qg.plans[i] = costmodel.PlanClass(cfg.Schema, ev.Frag, ev.Scheme, &cfg.Mix.Classes[i])
	}
	return qg, nil
}

// Job draws one concrete query (class chosen randomly by workload weight)
// and renders it as a simulator job: one request per hit fragment on the
// fragment's disk, priced bitmap + fact.
func (qg *QueryGen) Job(id int, arrival time.Duration) Job {
	ci := sort.SearchFloat64s(qg.cumW, qg.rng.Float64())
	if ci >= len(qg.plans) {
		ci = len(qg.plans) - 1
	}
	return qg.JobForClass(ci, id, arrival)
}

// JobForClass draws a concrete query of a specific class. Predicate values
// are still random; only the class choice is fixed. Used for stratified
// estimation (exact class proportions) and per-class studies.
func (qg *QueryGen) JobForClass(ci int, id int, arrival time.Duration) Job {
	plan := &qg.plans[ci]
	hitSets := qg.drawHitSets(plan)
	job := Job{ID: id, Arrival: arrival}
	g := qg.ev.Geometry
	sz := g.SizeClasses()
	d := &qg.cfg.Disk
	// Enumerate the Cartesian product of per-attribute hit sets.
	idx := make([]int, len(hitSets))
	for {
		vals := make([]int, len(hitSets))
		for i, hs := range hitSets {
			vals[i] = hs[idx[i]]
		}
		fid := qg.ev.Frag.FragmentID(qg.cfg.Schema, vals)
		c := sz.ClassOf[fid]
		if pages := sz.Pages[c]; pages > 0 {
			io := costmodel.FragmentCost(plan, g.PageSize, pages, sz.Rows[c], qg.ev.FactPrefetch, qg.ev.BitmapPrefetch)
			svc := time.Duration(io.Seconds(d) * float64(time.Second))
			if svc > 0 {
				job.Requests = append(job.Requests, Request{Disk: qg.ev.Placement.DiskOf[fid], Service: svc})
			}
		}
		// Advance the product iterator.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(hitSets[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return job
		}
	}
}

// drawHitSets binds concrete predicate values and returns, per
// fragmentation attribute, the hit fragment-attribute values.
func (qg *QueryGen) drawHitSets(plan *costmodel.ClassPlan) [][]int {
	out := make([][]int, len(plan.Dims))
	for i, dp := range plan.Dims {
		switch dp.Case {
		case costmodel.Unreferenced:
			all := make([]int, dp.FragCard)
			for v := range all {
				all[v] = v
			}
			out[i] = all
		case costmodel.CoarserEq:
			w := qg.rng.Intn(dp.QueryCard)
			var hit []int
			for v := 0; v < dp.FragCard; v++ {
				if costmodel.Ancestor(v, dp.FragCard, dp.QueryCard, qg.cfg.Mapping) == w {
					hit = append(hit, v)
				}
			}
			if len(hit) == 0 {
				// Degenerate mapping corner (cannot happen for valid
				// monotone hierarchies, kept as a guard): fall back to
				// the value's own slot.
				hit = []int{w % dp.FragCard}
			}
			out[i] = hit
		case costmodel.Finer:
			w := qg.rng.Intn(dp.QueryCard)
			out[i] = []int{costmodel.Ancestor(w, dp.QueryCard, dp.FragCard, qg.cfg.Mapping)}
		}
	}
	return out
}

// SingleUser simulates n independent query executions, each on an idle
// system (no inter-query queueing), and returns aggregate metrics over the
// per-query response times. Class counts are stratified: each class runs
// exactly round(weight·n) times (largest-remainder apportionment), so the
// weighted aggregates are unbiased estimators of the analytical
// expectations; predicate values remain random.
func SingleUser(cfg *costmodel.Config, ev *costmodel.Evaluation, n int, seed int64) (Metrics, []time.Duration, error) {
	return SingleUserRand(cfg, ev, n, rand.New(rand.NewSource(seed)))
}

// SingleUserRand is SingleUser drawing predicate values from an explicit
// source.
func SingleUserRand(cfg *costmodel.Config, ev *costmodel.Evaluation, n int, rng *rand.Rand) (Metrics, []time.Duration, error) {
	if n <= 0 {
		return Metrics{}, nil, fmt.Errorf("%w: n=%d", ErrBadGen, n)
	}
	qg, err := NewQueryGenRand(cfg, ev, rng)
	if err != nil {
		return Metrics{}, nil, err
	}
	counts := apportion(cfg.Mix.NormalizedWeights(), n)
	responses := make([]time.Duration, 0, n)
	agg := Metrics{Utilization: make([]float64, cfg.Disk.Disks)}
	var sum time.Duration
	id := 0
	for ci, cnt := range counts {
		for k := 0; k < cnt; k++ {
			job := qg.JobForClass(ci, id, 0)
			id++
			m, rs, err := Run(cfg.Disk.Disks, []Job{job})
			if err != nil {
				return Metrics{}, nil, err
			}
			agg.TotalBusy += m.TotalBusy
			responses = append(responses, rs[0])
			sum += rs[0]
			if rs[0] > agg.MaxResponse {
				agg.MaxResponse = rs[0]
			}
		}
	}
	agg.Jobs = len(responses)
	agg.MeanResponse = sum / time.Duration(len(responses))
	sorted := append([]time.Duration(nil), responses...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(float64(len(sorted))*0.95) - 1
	if idx < 0 {
		idx = 0
	}
	agg.P95Response = sorted[idx]
	return agg, responses, nil
}

// apportion distributes n draws over the weights with the largest-
// remainder method, guaranteeing Σcounts == n and counts_i ≈ w_i·n.
func apportion(weights []float64, n int) []int {
	counts := make([]int, len(weights))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	total := 0
	for i, w := range weights {
		exact := w * float64(n)
		counts[i] = int(exact)
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
		total += counts[i]
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; total < n && k < len(rems); k++ {
		counts[rems[k].idx]++
		total++
	}
	return counts
}

// MultiUser simulates an open system: n queries arriving Poisson at
// ratePerSec, competing for the disks. The seed derives two independent
// streams (seed for the queries, seed+1 for the arrivals), exactly as
// MultiUserRand with those sources.
func MultiUser(cfg *costmodel.Config, ev *costmodel.Evaluation, n int, ratePerSec float64, seed int64) (Metrics, error) {
	return MultiUserRand(cfg, ev, n, ratePerSec,
		rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1)))
}

// MultiUserRand is MultiUser with explicit sources: queries draws the
// query classes and predicate values, arrivals draws the Poisson
// arrival process. Separate streams keep the two concerns independent —
// changing the arrival rate (or the arrival stream) never perturbs
// which queries run, and vice versa.
func MultiUserRand(cfg *costmodel.Config, ev *costmodel.Evaluation, n int, ratePerSec float64, queries, arrivals *rand.Rand) (Metrics, error) {
	if n <= 0 {
		return Metrics{}, fmt.Errorf("%w: n=%d", ErrBadGen, n)
	}
	arrivalTimes, err := PoissonArrivalsRand(n, ratePerSec, arrivals)
	if err != nil {
		return Metrics{}, err
	}
	qg, err := NewQueryGenRand(cfg, ev, queries)
	if err != nil {
		return Metrics{}, err
	}
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = qg.Job(i, arrivalTimes[i])
	}
	m, _, err := Run(cfg.Disk.Disks, jobs)
	return m, err
}
