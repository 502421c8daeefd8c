package sweep

// Progress and resume tests: the OnScenario hook must report monotonic,
// complete progress, and a run resumed from checkpointed Outcomes must
// render byte-identically to the uninterrupted run — the invariant the
// async job subsystem's restart recovery rests on.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// renderAll captures every rendered surface of a report.
func renderAll(t *testing.T, r *Report) (table, js []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := r.Table(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

func TestRunProgress(t *testing.T) {
	base := baseInput(t, 200_000, 8)
	var got []Progress
	rep, err := Run(context.Background(), base, fullGrid(), Options{
		Workers:    3,
		OnScenario: func(p Progress) { got = append(got, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(rep.Scenarios)
	if len(got) != total {
		t.Fatalf("%d callbacks, want one per scenario (%d)", len(got), total)
	}
	seen := map[int]bool{}
	for i, p := range got {
		if p.Total != total {
			t.Fatalf("callback %d: Total = %d, want %d", i, p.Total, total)
		}
		if p.Resumed {
			t.Fatalf("callback %d: Resumed on a fresh run", i)
		}
		if p.Index < 0 || p.Index >= total || seen[p.Index] {
			t.Fatalf("callback %d: bad or duplicate index %d", i, p.Index)
		}
		seen[p.Index] = true
		if p.Done != i+1 {
			t.Fatalf("callback %d: Done = %d, want %d", i, p.Done, i+1)
		}
	}
}

// TestResumeByteIdentical checkpoints every scenario Outcome of a
// full run through a JSON round-trip (the on-disk form), then replays
// subsets of them into fresh runs: every rendered surface must equal the
// uninterrupted run's, and resumed callbacks must replay first, in
// canonical order.
func TestResumeByteIdentical(t *testing.T) {
	grid := fullGrid()
	ckpts := map[int]Outcome{}
	full, err := Run(context.Background(), baseInput(t, 200_000, 8), grid, Options{
		OnScenario: func(p Progress) {
			// Round-trip through JSON: resume reads what disk persisted.
			b, err := json.Marshal(p.Outcome)
			if err != nil {
				t.Error(err)
				return
			}
			var o Outcome
			if err := json.Unmarshal(b, &o); err != nil {
				t.Error(err)
				return
			}
			ckpts[p.Index] = o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTable, wantJSON := renderAll(t, full)

	cases := map[string]func() map[int]Outcome{
		"all": func() map[int]Outcome { return ckpts },
		"partial": func() map[int]Outcome {
			part := map[int]Outcome{}
			i := 0
			for rep, o := range ckpts {
				if i%2 == 0 {
					part[rep] = o
				}
				i++
			}
			return part
		},
	}
	for name, mk := range cases {
		resume := mk()
		var resumedReps []int
		liveAfterResumed := true
		sawLive := false
		rep, err := Run(context.Background(), baseInput(t, 200_000, 8), grid, Options{
			Resume: resume,
			OnScenario: func(p Progress) {
				if p.Resumed {
					if sawLive {
						liveAfterResumed = false
					}
					resumedReps = append(resumedReps, p.Index)
				} else {
					sawLive = true
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		table, js := renderAll(t, rep)
		if !bytes.Equal(table, wantTable) {
			t.Errorf("%s: resumed table differs from uninterrupted run:\n%s\nvs\n%s", name, table, wantTable)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("%s: resumed JSON differs from uninterrupted run:\n%s\nvs\n%s", name, js, wantJSON)
		}
		if len(resumedReps) != len(resume) {
			t.Errorf("%s: %d resumed callbacks, want %d", name, len(resumedReps), len(resume))
		}
		if !liveAfterResumed {
			t.Errorf("%s: live callback before the resumed replay finished", name)
		}
		for i := 1; i < len(resumedReps); i++ {
			if resumedReps[i-1] >= resumedReps[i] {
				t.Errorf("%s: resumed replay out of canonical order: %v", name, resumedReps)
			}
		}
		// Best() must agree too: the recommendation is computed from
		// Outcomes alone, so replayed scenarios fully participate.
		if fb, rb := full.Best(), rep.Best(); (fb == nil) != (rb == nil) ||
			(fb != nil && fb.Index != rb.Index) {
			t.Errorf("%s: Best() differs under resume", name)
		}
	}
}

// TestResumeFailedScenario checkpoints a failed advisory and verifies
// the replay reproduces the scenario error.
func TestResumeFailedScenario(t *testing.T) {
	o := Outcome{Failed: true, Err: "advise: every candidate excluded"}
	rep, err := Run(context.Background(), baseInput(t, 100_000, 8), &Grid{}, Options{
		Resume: map[int]Outcome{0: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("scenarios = %d", len(rep.Scenarios))
	}
	sr := rep.Scenarios[0]
	if sr.Err == nil || sr.Err.Error() != o.Err {
		t.Fatalf("replayed error = %v", sr.Err)
	}
	if sr.Result != nil {
		t.Fatal("replayed scenario must not fabricate a Result")
	}
}
