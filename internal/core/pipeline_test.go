package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apb"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/workload"
)

// apb1Input is the APB-1 preset (scaled to 1M rows so the determinism
// matrix runs in seconds), the fixture required by the pipeline refactor.
func apb1Input(t *testing.T) *Input {
	t.Helper()
	s := apb.Schema(1_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	d := apb.Disk(16)
	d.PrefetchPages = 4
	d.BitmapPrefetchPages = 4
	return &Input{Schema: s, Mix: m, Disk: d}
}

// resultFingerprint strips the Input pointer so reflect.DeepEqual
// compares only the computed outputs.
type resultFingerprint struct {
	Ranked       any
	Evaluations  any
	Excluded     any
	FailureTexts []string
}

func fingerprint(r *Result) resultFingerprint {
	fp := resultFingerprint{Ranked: r.Ranked, Evaluations: r.Evaluations, Excluded: r.Excluded}
	for _, e := range r.EvalFailures {
		fp.FailureTexts = append(fp.FailureTexts, e.Error())
	}
	return fp
}

// TestAdviseParallelismDeterministic: the acceptance criterion of the
// concurrent pipeline — Advise results are bit-for-bit identical across
// Parallelism 1, 4, 8 and GOMAXPROCS on the APB-1 preset.
func TestAdviseParallelismDeterministic(t *testing.T) {
	base := apb1Input(t)
	want, err := Advise(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Ranked) == 0 || len(want.Evaluations) == 0 {
		t.Fatal("baseline produced no results")
	}
	for _, p := range []int{1, 4, 8, runtime.GOMAXPROCS(0)} {
		in := apb1Input(t)
		in.Parallelism = p
		got, err := Advise(in)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !reflect.DeepEqual(fingerprint(got), fingerprint(want)) {
			t.Fatalf("parallelism %d: result differs from default-parallelism baseline", p)
		}
	}
}

// TestAdviseParallelismDeterministicExplicit: the explicit-candidate path
// through the pipeline is equally order-insensitive.
func TestAdviseParallelismDeterministicExplicit(t *testing.T) {
	mk := func(p int) *Result {
		in := apb1Input(t)
		in.Candidates = fragment.Enumerate(in.Schema)
		in.Parallelism = p
		res, err := Advise(in)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		return res
	}
	want := mk(1)
	got := mk(8)
	if !reflect.DeepEqual(fingerprint(got), fingerprint(want)) {
		t.Fatal("explicit-candidate results differ between 1 and 8 workers")
	}
}

// TestAdviseContextPreCancelled: a cancelled context aborts before any
// evaluation and reports the context error.
func TestAdviseContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AdviseContext(ctx, apb1Input(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run must not return a result")
	}
}

// TestAdviseContextCancelMidRun: cancelling while the pipeline is
// evaluating drains cleanly — the call returns the context error (or
// completes if it won the race) and leaks no goroutines.
func TestAdviseContextCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*3*time.Millisecond)
		res, err := AdviseContext(ctx, apb1Input(t))
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: err = %v", i, err)
			}
			if res != nil {
				t.Fatalf("run %d: result returned alongside cancellation", i)
			}
		} else if len(res.Ranked) == 0 {
			t.Fatalf("run %d: completed without ranked results", i)
		}
	}
	// All pipeline goroutines must have exited with their calls.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines grew from %d to %d — pipeline leak", before, n)
	}
}

// TestAdviseContextCompletesEqualsAdvise: an un-cancelled AdviseContext
// is exactly Advise.
func TestAdviseContextCompletesEqualsAdvise(t *testing.T) {
	want, err := Advise(apb1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AdviseContext(context.Background(), apb1Input(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(got), fingerprint(want)) {
		t.Fatal("AdviseContext differs from Advise")
	}
}

// TestAdviseSkewedParallelismDeterministic: on a skewed schema whose
// last two candidates each have thousands of distinct fragment sizes (the
// largest size-class tables any candidate prices), the 4-worker run must
// equal the single-worker run.
func TestAdviseSkewedParallelismDeterministic(t *testing.T) {
	s := &schema.Star{
		Name: "Skewed",
		Fact: schema.FactTable{Name: "F", Rows: 2_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "Big", SkewTheta: 0.8, Levels: []schema.Level{
				{Name: "grp", Cardinality: 8},
				{Name: "id", Cardinality: 8192},
			}},
			{Name: "Small", Levels: []schema.Level{
				{Name: "g", Cardinality: 6},
			}},
		},
	}
	m, err := workload.RandomMix(s, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p int) *Input {
		return &Input{Schema: s, Mix: m, Disk: apb.Disk(8), Parallelism: p,
			Thresholds: fragment.Thresholds{MaxFragments: 1 << 20}}
	}

	want, err := Advise(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := Advise(mk(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fingerprint(got), fingerprint(want)) {
			t.Fatalf("rep %d: 4 workers differ from 1 worker", rep)
		}
	}
}
