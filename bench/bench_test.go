package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// toyConfig runs a workload at toy scale: 4M-row documents, two ops per
// closed loop and a one-second service ladder.
func toyConfig(t *testing.T) *runConfig {
	return &runConfig{seed: 1, seconds: 1, maxOps: 2, toy: true, setupReps: 1, warmups: 1, advisories: 1, outDir: t.TempDir()}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(toyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t attempted=%d failed=%d errors=%q", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
		})
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric registry and
// the limits it must keep, and that a run's result line carries every
// metric it names with its unit.
func TestBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) > 8 || len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d layer metrics exceed 8/16/128",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	seen := map[string]bool{}
	for i, w := range bj.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || w.Why == "" {
			t.Errorf("workload %q: bad or repeated name, or no reason", w.Name)
		}
		seen[w.Name] = true
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json but not in the benchmark", i, w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, group := range []struct {
		json []metricJSON
		reg  []metric
		e2e  bool
	}{{bj.EndToEnd, endToEnd, true}, {bj.PerLayer, perLayer, false}} {
		if len(group.json) != len(group.reg) {
			t.Errorf("BENCHMARK.json has %d metrics where the registry has %d", len(group.json), len(group.reg))
			continue
		}
		for i, j := range group.json {
			r := group.reg[i]
			if !name.MatchString(j.Name) || seen[j.Name] {
				t.Errorf("metric %q: bad or repeated name", j.Name)
			}
			seen[j.Name] = true
			if j.Name != r.Name || j.Unit != r.Unit || j.Better != r.Better {
				t.Errorf("BENCHMARK.json metric %d is %+v, registry has %+v", i, j, r)
			}
			switch {
			case group.e2e && (j.Bound == nil || *j.Bound != r.Bound || *j.Bound <= 0 || *j.Bound > 0.25):
				t.Errorf("%s: bound must equal the registry's %g and lie in (0, 0.25]", j.Name, r.Bound)
			case !group.e2e && j.Bound != nil:
				t.Errorf("%s: layer metrics have no bound", j.Name)
			}
		}
	}

	res := &runResult{Correct: true, Attempted: 1, Metrics: map[string]float64{}}
	for _, trace := range []bool{false, true} {
		var buf bytes.Buffer
		if err := writeLine(&buf, res, trace); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		want := bj.EndToEnd
		if trace {
			want = bj.PerLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%t: result line has %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace=%t: result line lacks %s in %s", trace, m.Name, m.Unit)
			}
		}
	}
}

// TestCorruptReference checks that wrong outputs are caught: with the
// reference digest corrupted, every op must count as failed.
func TestCorruptReference(t *testing.T) {
	rc := toyConfig(t)
	w := workload{"cli-apb1", func(rc *runConfig) (instance, error) {
		inst, err := setupCLI(rc)
		if err == nil {
			inst.(*adviseInst).ref[0] ^= 0xff
		}
		return inst, err
	}}
	res, err := w.run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("correct=%t attempted=%d failed=%d, want every op failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestTraceCountsRepeat checks that the traced run's work counts are
// exact: two runs on the same seed must report identical counts.
func TestTraceCountsRepeat(t *testing.T) {
	counts := []string{"fragment.candidates", "fragment.survivors", "fragment.size_classes",
		"costmodel.outcome_tables", "costmodel.walk_patterns", "costmodel.kernel_prices"}
	w, _ := findWorkload("cli-apb1")
	var runs []*runResult
	for i := 0; i < 2; i++ {
		rc := toyConfig(t)
		rc.trace = true
		res, err := w.run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("traced run incorrect: %q", res.Errors)
		}
		b, err := os.ReadFile(filepath.Join(rc.outDir, "trace-cli-apb1-seed1.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || len(tf.Top) == 0 {
			t.Fatalf("trace file has %d spans and %d top candidates", len(tf.Spans), len(tf.Top))
		}
		runs = append(runs, res)
	}
	for _, c := range counts {
		a, b := runs[0].Metrics[c], runs[1].Metrics[c]
		if a <= 0 || a != b {
			t.Errorf("%s: %v then %v, want equal and positive", c, a, b)
		}
	}
}
