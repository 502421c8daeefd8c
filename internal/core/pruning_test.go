package core

// Pruning identity property: the branch-and-bound stage may only remove
// work, never results. For randomized schemas and mixes, the pruned
// pipeline must produce exactly the same deterministic result surfaces
// (ranking, retained evaluations, exclusions, evaluation failures) as
// the unpruned one at every parallelism level — and the same
// classified error when the workload is infeasible.

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/apb"
	"repro/internal/workload"
)

func TestPrunedMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(4097))
	compared, skipped := 0, 0
	for trial := 0; trial < 25; trial++ {
		s := randomStar(rng)
		m, err := workload.RandomMix(s, 1+rng.Intn(6), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		d := apb.Disk(1 + rng.Intn(64))
		if rng.Intn(2) == 0 {
			d.PrefetchPages = 1 << rng.Intn(7)
			d.BitmapPrefetchPages = d.PrefetchPages
		}
		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			pruned := &Input{Schema: s, Mix: m, Disk: d, Parallelism: par}
			unpruned := &Input{Schema: s, Mix: m, Disk: d, Parallelism: par, DisablePruning: true}
			rp, errP := Advise(pruned)
			ru, errU := Advise(unpruned)
			if (errP == nil) != (errU == nil) {
				t.Fatalf("trial %d par=%d: pruned err=%v, unpruned err=%v", trial, par, errP, errU)
			}
			if errP != nil {
				if !errors.Is(errP, ErrNoFeasible) && !errors.Is(errU, ErrNoFeasible) {
					t.Fatalf("trial %d par=%d: unexpected error %v", trial, par, errP)
				}
				continue
			}
			assertIdenticalResults(t, trial, par, rp, ru)
			compared++
			skipped += rp.PruneStats.Skipped
		}
	}
	if compared < 20 {
		t.Fatalf("pruning identity sweep only compared %d advisories", compared)
	}
	// An identity check over runs that skip nothing proves nothing about
	// skipping.
	if skipped == 0 {
		t.Fatal("pruning identity sweep skipped no candidate")
	}
	t.Logf("pruning identity: %d advisories compared, %d candidates skipped", compared, skipped)
}

// TestPruningSkipsOnPaperScale guards the pruning stage's liveness on the
// default path: on APB-1 at 24M rows and 64 disks, with the advisor
// choosing the prefetch granule, best-first evaluation under the
// granule-aware bound skips a large share of the survivors. One worker
// makes the count deterministic.
func TestPruningSkipsOnPaperScale(t *testing.T) {
	s := apb.Schema(24_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Advise(&Input{Schema: s, Mix: m, Disk: apb.Disk(64), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.PruneStats
	if ps.Survivors != 73 {
		t.Fatalf("%d survivors, want 73", ps.Survivors)
	}
	if ps.Skipped < 20 {
		t.Fatalf("pruning skipped %d of %d survivors, want at least 20", ps.Skipped, ps.Survivors)
	}
}

// assertIdenticalResults checks every deterministic surface of the two
// results. PruneStats is the one deliberate exception: Evaluated/Skipped
// are schedule-dependent diagnostics.
func assertIdenticalResults(t *testing.T, trial, par int, a, b *Result) {
	t.Helper()
	if len(a.Ranked) != len(b.Ranked) || len(a.Evaluations) != len(b.Evaluations) ||
		len(a.Excluded) != len(b.Excluded) || len(a.EvalFailures) != len(b.EvalFailures) {
		t.Fatalf("trial %d par=%d: surface sizes differ: ranked %d/%d evals %d/%d excluded %d/%d failures %d/%d",
			trial, par, len(a.Ranked), len(b.Ranked), len(a.Evaluations), len(b.Evaluations),
			len(a.Excluded), len(b.Excluded), len(a.EvalFailures), len(b.EvalFailures))
	}
	for i := range a.Ranked {
		x, y := a.Ranked[i].Eval, b.Ranked[i].Eval
		if x.Frag.Key() != y.Frag.Key() || x.AccessCost != y.AccessCost ||
			x.ResponseTime != y.ResponseTime ||
			a.Ranked[i].CostRank != b.Ranked[i].CostRank ||
			a.Ranked[i].ResponseRank != b.Ranked[i].ResponseRank {
			t.Fatalf("trial %d par=%d: ranked[%d] differs: %s(%v,%v) vs %s(%v,%v)", trial, par, i,
				x.Frag.Key(), x.AccessCost, x.ResponseTime, y.Frag.Key(), y.AccessCost, y.ResponseTime)
		}
	}
	for i := range a.Evaluations {
		x, y := a.Evaluations[i], b.Evaluations[i]
		if x.Frag.Key() != y.Frag.Key() || x.AccessCost != y.AccessCost || x.ResponseTime != y.ResponseTime {
			t.Fatalf("trial %d par=%d: evaluations[%d] differs: %s vs %s",
				trial, par, i, x.Frag.Key(), y.Frag.Key())
		}
	}
	for i := range a.Excluded {
		if a.Excluded[i].Frag.Key() != b.Excluded[i].Frag.Key() || a.Excluded[i].Reason != b.Excluded[i].Reason {
			t.Fatalf("trial %d par=%d: excluded[%d] differs", trial, par, i)
		}
	}
	for i := range a.EvalFailures {
		if a.EvalFailures[i].Error() != b.EvalFailures[i].Error() {
			t.Fatalf("trial %d par=%d: eval failure[%d] differs: %v vs %v",
				trial, par, i, a.EvalFailures[i], b.EvalFailures[i])
		}
	}
	if !a.PruneStats.Enabled {
		t.Fatalf("trial %d par=%d: pruned run reports pruning disabled", trial, par)
	}
	if b.PruneStats.Enabled {
		t.Fatalf("trial %d par=%d: DisablePruning run reports pruning enabled", trial, par)
	}
	if a.PruneStats.Survivors != b.PruneStats.Survivors {
		t.Fatalf("trial %d par=%d: survivor counts differ: %d vs %d",
			trial, par, a.PruneStats.Survivors, b.PruneStats.Survivors)
	}
	if a.PruneStats.Evaluated+a.PruneStats.Skipped != a.PruneStats.Survivors {
		t.Fatalf("trial %d par=%d: prune stats inconsistent: %+v", trial, par, a.PruneStats)
	}
}
