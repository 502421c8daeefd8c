package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// capture runs run(args) with stdout redirected and returns the output.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
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
	runErr := run(context.Background(), args)
	w.Close()
	os.Stdout = old
	return string(<-done), runErr
}

func TestRunRequiresConfigOrPreset(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Fatal("no args should fail")
	}
}

func TestRunEmitExample(t *testing.T) {
	out, err := capture(t, "-emit-example")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema"`, `"APB-1"`, `"queries"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in example config", want)
		}
	}
}

func TestRunAPB1Preset(t *testing.T) {
	out, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WARLOCK allocation advice", "ranked fragmentation candidates", "physical allocation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestRunSweepMode(t *testing.T) {
	example, err := capture(t, "-emit-sweep-example", "-rows", "300000", "-disks", "8")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(path, []byte(example), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "report.json")
	out, err := capture(t, "-sweep", path, "-sweep-json", jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenarios", "SCENARIO", "WINNER", "recommended:", "sweep report written"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"winnerKey"`) {
		t.Fatalf("sweep JSON report missing winnerKey:\n%s", js)
	}
}

func TestRunSweepModeBadFile(t *testing.T) {
	if _, err := capture(t, "-sweep", "/nonexistent/sweep.json"); err == nil {
		t.Fatal("missing sweep file should fail")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "-sweep", path); err == nil {
		t.Fatal("invalid sweep file should fail")
	}
}

// sweepDocForTest parses the -emit-sweep-example output so error-path
// tests can mutate a known-good document.
func sweepDocForTest(t *testing.T) *config.SweepDoc {
	t.Helper()
	example, err := capture(t, "-emit-sweep-example", "-rows", "300000", "-disks", "8")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := config.ParseSweep(strings.NewReader(example))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func writeSweepDoc(t *testing.T, doc *config.SweepDoc) string {
	t.Helper()
	var buf strings.Builder
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSweepModeSemanticErrors: documents that decode but fail to
// build (negative target) or to expand (unknown axis values) must fail
// the run, not silently degrade.
func TestRunSweepModeSemanticErrors(t *testing.T) {
	badTarget := sweepDocForTest(t)
	badTarget.ResponseTargetMs = -1
	if _, err := capture(t, "-sweep", writeSweepDoc(t, badTarget)); err == nil {
		t.Fatal("negative responseTargetMs should fail")
	}

	badAlloc := sweepDocForTest(t)
	badAlloc.Grid.Allocs = []string{"bogus-scheme"}
	if _, err := capture(t, "-sweep", writeSweepDoc(t, badAlloc)); err == nil {
		t.Fatal("unknown alloc axis value should fail")
	}

	badMixClass := sweepDocForTest(t)
	badMixClass.Grid.MixScales = []config.MixScaleDoc{
		{Name: "boost-missing", Factors: map[string]float64{"no-such-class": 4}},
	}
	if _, err := capture(t, "-sweep", writeSweepDoc(t, badMixClass)); err == nil {
		t.Fatal("mix scale naming an unknown class should fail")
	}
}

// TestRunSweepJSONUnwritable: a sweep that evaluates fine must still
// fail the run when the -sweep-json report cannot be written.
func TestRunSweepJSONUnwritable(t *testing.T) {
	doc := sweepDocForTest(t)
	doc.Grid.Disks = []int{8} // shrink the grid: this test is about the write
	doc.Grid.MixScales = nil
	doc.Grid.Skews = nil
	path := writeSweepDoc(t, doc)
	if _, err := capture(t, "-sweep", path, "-sweep-json", "/nonexistent-dir/report.json"); err == nil {
		t.Fatal("unwritable -sweep-json path should fail")
	}
	// A path routed through a regular file fails with ENOTDIR for every
	// user (a 0555 directory would not stop root, and CI may run as root).
	plainFile := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(plainFile, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "-sweep", path, "-sweep-json", filepath.Join(plainFile, "report.json")); err == nil {
		t.Fatal("-sweep-json path through a regular file should fail")
	}
}

func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	example, err := capture(t, "-emit-example", "-rows", "500000", "-disks", "8")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, []byte(example), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "-config", cfgPath, "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "WARLOCK allocation advice") {
		t.Fatal("report missing")
	}
}

func TestRunConfigFileMissing(t *testing.T) {
	if _, err := capture(t, "-config", "/nonexistent/cfg.json"); err == nil {
		t.Fatal("missing config should fail")
	}
}

func TestRunConfigFileInvalid(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(cfgPath, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "-config", cfgPath); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestRunCSVExports(t *testing.T) {
	dir := t.TempDir()
	cand := filepath.Join(dir, "cand.csv")
	stats := filepath.Join(dir, "stats.csv")
	_, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8",
		"-candidates-csv", cand, "-stats-csv", stats)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(cand)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cb), "rank,") {
		t.Fatalf("candidates CSV header: %q", string(cb[:20]))
	}
	sb, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(sb), "class,") {
		t.Fatalf("stats CSV header: %q", string(sb[:20]))
	}
}

func TestRunProfileAndSimulate(t *testing.T) {
	out, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8",
		"-profile", "0", "-simulate", "20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "disk access profile") {
		t.Fatal("profile missing")
	}
	if !strings.Contains(out, "single-user: mean") {
		t.Fatal("simulation summary missing")
	}
}

func TestRunMultiUserSimulate(t *testing.T) {
	out, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8",
		"-simulate", "20", "-sim-rate", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "multi-user @") {
		t.Fatal("multi-user summary missing")
	}
}

func TestRunBadProfileIndex(t *testing.T) {
	if _, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8", "-profile", "99"); err == nil {
		t.Fatal("bad profile index should fail")
	}
}

func TestRunParallelismFlagDeterministic(t *testing.T) {
	serial, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8", "-parallelism", "1")
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8", "-parallelism", "4")
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatal("-parallelism changed the report output")
	}
	// The prune statistics depend on worker scheduling, so they must
	// stay off stdout.
	for _, out := range []string{serial, parallel} {
		if strings.Contains(out, "pruning:") {
			t.Fatal("stdout carries the schedule-dependent pruning line")
		}
	}
}

func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := capture(t, "-apb1", "-rows", "500000", "-disks", "8",
		"-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
