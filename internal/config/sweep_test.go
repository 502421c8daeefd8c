package config

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

func TestSweepRoundTrip(t *testing.T) {
	doc := ExampleSweep(1_000_000, 16)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in, grid, target, err := parsed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.Schema.Fact.Rows != 1_000_000 || in.Disk.Disks != 16 {
		t.Fatalf("base input %+v", in.Disk)
	}
	if len(grid.Disks) != 4 || len(grid.MixScales) != 2 || len(grid.Skews) != 2 {
		t.Fatalf("grid %+v", grid)
	}
	if grid.MixScales[1].Factors["Q3-store-month"] != 8 {
		t.Fatalf("mix factors %+v", grid.MixScales[1])
	}
	if target != 500*time.Millisecond {
		t.Fatalf("target %v", target)
	}
}

func TestParseSweepRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSweep(strings.NewReader(`{"grid": {"spindles": [3]}}`)); err == nil {
		t.Fatal("unknown grid field accepted")
	}
}

// TestParseSweepRejectsParallelismAxis: the grid has no parallelism
// axis (worker counts never change a result), so the key is unknown.
func TestParseSweepRejectsParallelismAxis(t *testing.T) {
	_, err := ParseSweep(strings.NewReader(`{"grid": {"disks": [8], "parallelism": [1, 4]}}`))
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("parallelism grid: err = %v, want ErrBadConfig", err)
	}
}

// TestParseSweepRejectsOversizedGrid: a grid above sweep.MaxScenarios is
// a bad document, whatever its base.
func TestParseSweepRejectsOversizedGrid(t *testing.T) {
	d := ExampleSweep(1_000_000, 16) // 16 scenarios
	d.Grid.Prefetch = make([]int, sweep.MaxScenarios/16+1)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSweep(&buf); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("oversized grid: err = %v, want ErrBadConfig", err)
	}
	d.Grid.Prefetch = d.Grid.Prefetch[:sweep.MaxScenarios/16]
	buf.Reset()
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSweep(&buf); err != nil {
		t.Fatalf("grid of exactly MaxScenarios rejected: %v", err)
	}
}

func TestSweepBuildErrors(t *testing.T) {
	// Invalid base propagates.
	d := &SweepDoc{}
	if _, _, _, err := d.Build(); err == nil {
		t.Fatal("empty base accepted")
	}
	// Negative target rejected.
	d = ExampleSweep(1_000_000, 16)
	d.ResponseTargetMs = -1
	if _, _, _, err := d.Build(); err == nil {
		t.Fatal("negative response target accepted")
	}
}
