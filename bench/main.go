// Command bench is the repository benchmark of the WARLOCK advisor: four
// seeded workloads covering the CLI advisory, the warlockd service and
// async sweep jobs, with end-to-end metrics measured untraced and
// per-layer metrics from a separate traced run. See README.md.
//
//	bench -workload cli-apb1 -seed 3 -seconds 20 -trace 0   one run, JSON result line
//	bench -seed 1 -sets 2                                    full sets into bench/out/
//	bench -compare old.json new.json                         verdict per metric and workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print its result as one JSON line (default: full sets)")
	seed := fs.Int64("seed", 1, "workload seed; it generates every input")
	seconds := fs.Float64("seconds", 20, "length of each workload's measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced layer replay and reports the per-layer metrics")
	sets := fs.Int("sets", 1, "full sets to run; the workload order alternates between sets")
	out := fs.String("out", "bench/out/result.json", "result file of a set run")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: old new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files: old new")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		rc := defaultConfig(*seed, *seconds)
		rc.trace = *trace == 1
		res, err := w.run(rc)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stderr, res, rc.trace)
		if err := writeLine(stdout, res, rc.trace); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	return runSets(*seed, *seconds, *trace == 1, *sets, *out, stdout, stderr)
}

// resultFile is the versioned result of one or more full sets.
type resultFile struct {
	Version    int         `json:"version"`
	Go         string      `json:"go"`
	Nproc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	Sets       []setResult `json:"sets"`
}

type setResult struct {
	Order     []string     `json:"order"`
	Workloads []*runResult `json:"workloads"`
}

const resultVersion = 1

// runSets runs full sets, alternating the workload order, and writes all
// of them to out; with more than one set each is also written to its own
// file next to out. It fails when any run failed an op or a check.
func runSets(seed int64, seconds float64, trace bool, sets int, out string, stdout, stderr io.Writer) int {
	rf := resultFile{Version: resultVersion, Go: runtime.Version(), Nproc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Trace: trace}
	status := 0
	for s := 0; s < sets; s++ {
		order := slices.Clone(workloads)
		if s%2 == 1 {
			slices.Reverse(order)
		}
		var set setResult
		for i := range order {
			w := &order[i]
			rc := defaultConfig(seed, seconds)
			rc.trace = trace
			rc.outDir = filepath.Dir(out)
			res, err := w.run(rc)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printResult(stdout, res, trace)
			if !res.Correct || res.Failed > 0 {
				status = 1
			}
			set.Order = append(set.Order, w.name)
			set.Workloads = append(set.Workloads, res)
		}
		rf.Sets = append(rf.Sets, set)
		if sets > 1 {
			one := rf
			one.Sets = []setResult{set}
			if err := writeJSON(fmt.Sprintf("%s-set%d.json", strings.TrimSuffix(out, ".json"), s+1), one); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	if err := writeJSON(out, rf); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return status
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeLine prints the one-line JSON result of a single run: every
// end-to-end metric, or with tracing every per-layer metric (0 for a
// layer the workload does not drive).
func writeLine(w io.Writer, res *runResult, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	reported := endToEnd
	if trace {
		reported = perLayer
	}
	for _, m := range reported {
		line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printResult prints one run as a table: the end-to-end metrics, then
// every layer metric the run measured (all of them when tracing).
func printResult(w io.Writer, res *runResult, trace bool) {
	rate := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "== %s seed=%d correct=%t attempted=%d failed=%d error_rate=%g samples=%d\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed, rate, res.Samples)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; ok || trace {
			fmt.Fprintf(w, "   %-34s %14.4f %-8s moves %s\n", m.Name, v, m.Unit, m.Moves)
		}
	}
}
