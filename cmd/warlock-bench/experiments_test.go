package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// tinyParams keeps every experiment in the millisecond range.
func tinyParams() params { return params{rows: 200_000, disks: 8, seed: 1} }

// captureExperiment runs one experiment with stdout captured.
func captureExperiment(t *testing.T, name string) string {
	t.Helper()
	e, ok := find(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := e.run(tinyParams())
	w.Close()
	os.Stdout = old
	out := string(<-done)
	if runErr != nil {
		t.Fatalf("%s: %v", name, runErr)
	}
	return out
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "f1", "f2"}
	if len(experiments) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(experiments), len(want))
	}
	for i, n := range want {
		if experiments[i].name != n {
			t.Fatalf("experiment %d = %q, want %q", i, experiments[i].name, n)
		}
		if experiments[i].desc == "" || experiments[i].run == nil {
			t.Fatalf("experiment %q incomplete", n)
		}
	}
	if _, ok := find("nope"); ok {
		t.Fatal("find(nope) should fail")
	}
}

func TestE1Output(t *testing.T) {
	out := captureExperiment(t, "e1")
	for _, want := range []string{"FRAGMENTATION", "I/O COST", "excluded by thresholds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e1 missing %q:\n%s", want, out)
		}
	}
}

func TestE2Output(t *testing.T) {
	out := captureExperiment(t, "e2")
	if !strings.Contains(out, "DISKS") || !strings.Contains(out, "256") {
		t.Fatalf("e2 output:\n%s", out)
	}
}

func TestE3Output(t *testing.T) {
	out := captureExperiment(t, "e3")
	if !strings.Contains(out, "GRANULE") || !strings.Contains(out, "auto (") {
		t.Fatalf("e3 output:\n%s", out)
	}
}

func TestE4Output(t *testing.T) {
	out := captureExperiment(t, "e4")
	if !strings.Contains(out, "THETA") || !strings.Contains(out, "greedy-size") {
		t.Fatalf("e4 output:\n%s", out)
	}
}

func TestE5Output(t *testing.T) {
	out := captureExperiment(t, "e5")
	if !strings.Contains(out, "Product.code") || !strings.Contains(out, "encoded") {
		t.Fatalf("e5 output:\n%s", out)
	}
}

func TestE6Output(t *testing.T) {
	out := captureExperiment(t, "e6")
	if !strings.Contains(out, "KEPT") {
		t.Fatalf("e6 output:\n%s", out)
	}
}

func TestE7Output(t *testing.T) {
	out := captureExperiment(t, "e7")
	if !strings.Contains(out, "SIM MEAN") || !strings.Contains(out, "skewed") {
		t.Fatalf("e7 output:\n%s", out)
	}
}

func TestE8Output(t *testing.T) {
	out := captureExperiment(t, "e8")
	if !strings.Contains(out, "WINNER") {
		t.Fatalf("e8 output:\n%s", out)
	}
}

func TestE9Output(t *testing.T) {
	out := captureExperiment(t, "e9")
	if !strings.Contains(out, "Pareto front") || !strings.Contains(out, "X%") {
		t.Fatalf("e9 output:\n%s", out)
	}
}

func TestE10Output(t *testing.T) {
	out := captureExperiment(t, "e10")
	if !strings.Contains(out, "base winner") || !strings.Contains(out, "BOOSTED") {
		t.Fatalf("e10 output:\n%s", out)
	}
}

func TestE11Output(t *testing.T) {
	out := captureExperiment(t, "e11")
	if !strings.Contains(out, "materialized rows") || !strings.Contains(out, "pred/meas") {
		t.Fatalf("e11 output:\n%s", out)
	}
}

func TestE12Output(t *testing.T) {
	out := captureExperiment(t, "e12")
	if !strings.Contains(out, "saturation rate") || !strings.Contains(out, "UTIL") {
		t.Fatalf("e12 output:\n%s", out)
	}
}

func TestE13Output(t *testing.T) {
	out := captureExperiment(t, "e13")
	if !strings.Contains(out, "RANGE SIZE") || !strings.Contains(out, "point-fragmentation") {
		t.Fatalf("e13 output:\n%s", out)
	}
}

func TestE14Output(t *testing.T) {
	out := captureExperiment(t, "e14")
	for _, want := range []string{"SCENARIOS", "SPEEDUP", "identical ranked results"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e14 missing %q:\n%s", want, out)
		}
	}
}

func TestF1Output(t *testing.T) {
	out := captureExperiment(t, "f1")
	for _, want := range []string{"input layer", "prediction layer", "analysis layer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("f1 missing %q:\n%s", want, out)
		}
	}
}

func TestF2Output(t *testing.T) {
	out := captureExperiment(t, "f2")
	for _, want := range []string{"fragmentation", "CLASS", "allocation scheme", "disk access profile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("f2 missing %q:\n%s", want, out)
		}
	}
}
