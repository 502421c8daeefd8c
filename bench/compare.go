package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Version != resultVersion {
		return nil, fmt.Errorf("%s: result version %d, want %d", path, rf.Version, resultVersion)
	}
	return &rf, nil
}

// series collects one workload's runs across every set of a file.
func (rf *resultFile) series(workload string) []*runResult {
	var out []*runResult
	for _, s := range rf.Sets {
		for _, r := range s.Workloads {
			if r.Workload == workload {
				out = append(out, r)
			}
		}
	}
	return out
}

func values(runs []*runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func errorRate(runs []*runResult) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// verdict judges new against old for one end-to-end metric: regressed or
// improved when the medians differ by more than the metric's bound,
// within bound otherwise — unless either side's quartile spread exceeds
// the bound, which leaves the change unresolved, short of every new run
// reading better than every old one.
func verdict(m metric, old, new []float64) string {
	q1o, mo, q3o := quartiles(old)
	q1n, mn, q3n := quartiles(new)
	bound := math.Max(m.Bound*math.Abs(mo), m.Floor)
	worse := mn - mo
	allBetter := slices.Max(new) < slices.Min(old)
	if m.Better == "higher" {
		worse = -worse
		allBetter = slices.Min(new) > slices.Max(old)
	}
	switch {
	case math.Max(q3o-q1o, q3n-q1n) > bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case worse > bound:
		return "regressed"
	case -worse > bound:
		return "improved"
	}
	return "within bound"
}

// compareFiles prints, per workload, every end-to-end metric's quartiles
// on both sides with a verdict, the error rates, and the layer metrics
// both sides measured. It returns 1 on any regression or a higher error
// rate.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadResult(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		ro, rn := old.series(w.name), cur.series(w.name)
		if len(ro) == 0 || len(rn) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "== %s (old %d runs, new %d runs)\n", w.name, len(ro), len(rn))
		fmt.Fprintf(stdout, "   %-30s %30s %30s %9s  %s\n", "metric", "old q1/median/q3", "new q1/median/q3", "delta", "verdict")
		for _, m := range endToEnd {
			vo, vn := values(ro, m.Name), values(rn, m.Name)
			if len(vo) == 0 || len(vn) == 0 {
				continue
			}
			v := verdict(m, vo, vn)
			if v == "regressed" {
				status = 1
			}
			printRow(stdout, m, vo, vn, v)
		}
		eo, en := errorRate(ro), errorRate(rn)
		v := "same"
		if en > eo {
			v, status = "regressed", 1
		}
		fmt.Fprintf(stdout, "   %-30s %30g %30g %9s  %s\n", "error_rate", eo, en, "", v)
		for _, m := range perLayer {
			vo, vn := values(ro, m.Name), values(rn, m.Name)
			if len(vo) == 0 || len(vn) == 0 {
				continue
			}
			v := ""
			if m.Unit == "count" {
				v = "same"
				if !slices.Equal(vo, vn) {
					v = "differs"
				}
			}
			printRow(stdout, m, vo, vn, v)
		}
	}
	return status
}

func printRow(w io.Writer, m metric, vo, vn []float64, v string) {
	q1o, mo, q3o := quartiles(vo)
	q1n, mn, q3n := quartiles(vn)
	delta := "n/a"
	if mo != 0 {
		delta = fmt.Sprintf("%+.1f%%", 100*(mn-mo)/math.Abs(mo))
	}
	fmt.Fprintf(w, "   %-30s %30s %30s %9s  %s\n", m.Name,
		fmt.Sprintf("%.4g/%.4g/%.4g", q1o, mo, q3o), fmt.Sprintf("%.4g/%.4g/%.4g", q1n, mn, q3n), delta, v)
}
