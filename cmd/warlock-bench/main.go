// Command warlock-bench regenerates every experiment in EXPERIMENTS.md
// (the quantitative evaluation of the WARLOCK approach, following the
// companion MDHF/BTW-2001 evaluations — the demo paper itself has no
// numeric tables). Each experiment prints the same rows/series the
// documentation records.
//
// Usage:
//
//	warlock-bench -list
//	warlock-bench e1 [-rows N] [-disks D]
//	warlock-bench all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/profiling"
)

// experiment is one runnable experiment.
type experiment struct {
	name string
	desc string
	run  func(p params) error
}

// params are the shared experiment knobs.
type params struct {
	rows  int64
	disks int
	seed  int64
}

var experiments = []experiment{
	{"e1", "ranked candidate list for the APB-1 mix (I/O cost + response)", runE1},
	{"e2", "response time vs number of disks for 1-D/2-D/3-D candidates", runE2},
	{"e3", "prefetch granule sweep (fixed vs advisor-optimized)", runE3},
	{"e4", "skew: round-robin vs greedy allocation balance and response", runE4},
	{"e5", "bitmap schemes: standard vs encoded storage and read cost", runE5},
	{"e6", "threshold exclusion: candidate survivors per threshold", runE6},
	{"e7", "analytical model vs discrete-event simulation", runE7},
	{"e8", "fact table volume scaling", runE8},
	{"e9", "throughput/response trade-off and the twofold X% cut", runE9},
	{"e10", "query mix sensitivity: per-class weight perturbations", runE10},
	{"e11", "cost model vs executed storage layout (materialized rows + bitmaps)", runE11},
	{"e12", "multi-user throughput: analytical estimate vs open-system simulation", runE12},
	{"e13", "range-size ablation: why WARLOCK restricts to point fragmentations", runE13},
	{"e14", "sweep engine: shared-state scenario grid vs independent cold advisories", runE14},
	{"f1", "Fig.1 pipeline: end-to-end advisor run summary", runF1},
	{"f2", "Fig.2 panels: full analysis report of the winner", runF2},
}

func main() {
	// All work happens in run so deferred cleanup (profile flushing) runs
	// before os.Exit, which skips defers.
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) (code int) {
	fs := flag.NewFlagSet("warlock-bench", flag.ContinueOnError)
	rows := fs.Int64("rows", 4_000_000, "fact table rows")
	disks := fs.Int("disks", 64, "number of disks")
	seed := fs.Int64("seed", 1, "simulation seed")
	list := fs.Bool("list", false, "list experiments and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.name, e.desc)
		}
		return 0
	}
	args := fs.Args()
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: warlock-bench [-rows N] [-disks D] <e1..e14|f1|f2|all>")
		return 2
	}
	if *cpuProfile != "" || *memProfile != "" {
		stop, err := profiling.Start(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "warlock-bench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "warlock-bench:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	p := params{rows: *rows, disks: *disks, seed: *seed}
	names := []string{args[0]}
	if args[0] == "all" {
		names = names[:0]
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	sort.Strings(nil) // keep deterministic order from the experiments slice
	for _, n := range names {
		e, ok := find(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", n)
			return 2
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err := e.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Println()
	}
	return 0
}

func find(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}
