package warlock_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/warlock"
)

// TestAdvisorMatchesDeprecatedAdvise pins the parity the removed
// top-level wrappers used to carry: a zero-option Advisor's Advise
// renders byte-identically to the pipeline it fronts, and the
// advisor-level knobs never change the output.
func TestAdvisorMatchesDeprecatedAdvise(t *testing.T) {
	ctx := context.Background()
	want, err := core.AdviseContext(ctx, smallInput(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := warlock.New().Advise(ctx, smallInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if warlock.Report(want) != warlock.Report(res) {
		t.Fatal("Advisor.Advise output differs from core.AdviseContext")
	}

	// The advisor-level knobs are wall-clock-only: same bytes again.
	tuned, err := warlock.New(
		warlock.WithEvalCache(warlock.NewEvalCache()),
		warlock.WithParallelism(3),
	).Advise(ctx, smallInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if warlock.Report(tuned) != warlock.Report(res) {
		t.Fatal("WithEvalCache/WithParallelism changed advisory output")
	}
}

// TestAdvisorMatchesDeprecatedSweep pins the same parity for sweeps: a
// zero-option Advisor's SweepWithOptions and Scenarios match sweep.Run
// and sweep.Expand on the same input.
func TestAdvisorMatchesDeprecatedSweep(t *testing.T) {
	ctx := context.Background()
	grid := &warlock.SweepGrid{Disks: []int{8, 16}, Prefetch: []int{0, 8}}
	opts := warlock.SweepOptions{ResponseTarget: 500 * time.Millisecond}
	want, err := sweep.Run(ctx, smallInput(t), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	adv := warlock.New()
	rep, err := adv.SweepWithOptions(ctx, smallInput(t), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != len(want.Scenarios) {
		t.Fatalf("scenarios: %d vs %d", len(rep.Scenarios), len(want.Scenarios))
	}
	for i := range rep.Scenarios {
		if a, b := rep.Scenarios[i].Outcome, want.Scenarios[i].Outcome; a != b {
			t.Fatalf("scenario %d outcome differs: %+v vs %+v", i, a, b)
		}
	}
	if wb, nb := want.Best(), rep.Best(); (wb == nil) != (nb == nil) ||
		(wb != nil && wb.Index != nb.Index) {
		t.Fatal("Best() differs from sweep.Run")
	}
	var wantJSON, newJSON bytes.Buffer
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&newJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), newJSON.Bytes()) {
		t.Fatal("rendered sweep JSON differs between sweep.Run and Advisor")
	}

	wantScens, err := sweep.Expand(smallInput(t), grid)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := adv.Scenarios(smallInput(t), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != len(wantScens) {
		t.Fatalf("expand: %d vs %d scenarios", len(scens), len(wantScens))
	}
	for i := range scens {
		if scens[i].Name != wantScens[i].Name {
			t.Fatalf("scenario %d name %q vs %q", i, scens[i].Name, wantScens[i].Name)
		}
	}
}

// TestAdvisorSweepWithOptionsMerging checks per-call options win over
// the Advisor's configuration and zero fields inherit it.
func TestAdvisorSweepWithOptionsMerging(t *testing.T) {
	adv := warlock.New(warlock.WithResponseTarget(time.Hour))
	rep, err := adv.SweepWithOptions(context.Background(), smallInput(t),
		&warlock.SweepGrid{Disks: []int{8}}, warlock.SweepOptions{ResponseTarget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != time.Nanosecond {
		t.Fatalf("per-call target overridden: %v", rep.Target)
	}
	rep, err = adv.Sweep(context.Background(), smallInput(t), &warlock.SweepGrid{Disks: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != time.Hour {
		t.Fatalf("advisor target not inherited: %v", rep.Target)
	}
}
