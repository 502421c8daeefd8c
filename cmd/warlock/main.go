// Command warlock is the WARLOCK data allocation advisor CLI: the textual
// equivalent of the paper's GUI tool. It reads a JSON configuration (or
// uses the built-in APB-1 preset), runs the advisor pipeline, and prints
// the ranked fragmentation candidates, the winner's query performance
// analysis and its physical allocation scheme.
//
// Usage:
//
//	warlock -emit-example > apb1.json     # write an editable config
//	warlock -config apb1.json             # advise for a config file
//	warlock -apb1 -rows 24000000 -disks 64
//	warlock -apb1 -candidates-csv out.csv # export the ranked list
//	warlock -apb1 -simulate 200           # validate the winner by simulation
//
// What-if sweeps evaluate a declarative scenario grid (disk counts,
// query-mix reweightings, skew, prefetch, allocation schemes) through
// one shared, memoizing pipeline and rank the scenarios — e.g. the
// smallest disk count meeting a response-time target:
//
//	warlock -emit-sweep-example > sweep.json
//	warlock -sweep sweep.json                  # tabular scenario report
//	warlock -sweep sweep.json -sweep-json out.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	// Ctrl-C cancels the advisor pipeline cleanly instead of killing the
	// process mid-write; once cancelled, default signal handling returns
	// so a second Ctrl-C force-quits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "warlock:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("warlock", flag.ContinueOnError)
	var (
		configPath    = fs.String("config", "", "JSON configuration file (see -emit-example)")
		apb1          = fs.Bool("apb1", false, "use the built-in APB-1 preset instead of -config")
		rows          = fs.Int64("rows", 24_000_000, "fact table rows for the APB-1 preset")
		disks         = fs.Int("disks", 64, "number of disks for the APB-1 preset")
		emitExample   = fs.Bool("emit-example", false, "print an example APB-1 JSON config and exit")
		topN          = fs.Int("top", 10, "number of ranked candidates to show")
		leadingPct    = fs.Float64("leading", 10, "leading %% of candidates re-ranked by response time")
		parallelism   = fs.Int("parallelism", 0, "cost-model evaluation workers (0 = GOMAXPROCS); results are identical for every value")
		noPrune       = fs.Bool("no-prune", false, "disable branch-and-bound candidate pruning (A/B baseline; results are identical either way)")
		candidatesCSV = fs.String("candidates-csv", "", "write the ranked candidate list to this CSV file")
		statsCSV      = fs.String("stats-csv", "", "write the winner's per-class statistics to this CSV file")
		profileClass  = fs.Int("profile", -1, "print the disk access profile of the query class with this index")
		simulate      = fs.Int("simulate", 0, "validate the winner with N simulated queries")
		simRate       = fs.Float64("sim-rate", 0, "multi-user arrival rate (queries/s); 0 = single-user")
		seed          = fs.Int64("seed", 1, "simulation seed")

		sweepPath    = fs.String("sweep", "", "JSON sweep definition: evaluate a what-if scenario grid (see -emit-sweep-example)")
		sweepJSON    = fs.String("sweep-json", "", "write the machine-readable sweep report to this JSON file")
		sweepWorkers = fs.Int("sweep-workers", 0, "concurrent scenario advisories (0 = GOMAXPROCS)")
		emitSweep    = fs.Bool("emit-sweep-example", false, "print an example sweep definition and exit")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" || *memProfile != "" {
		stop, perr := profiling.Start(*cpuProfile, *memProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}

	if *emitExample {
		return config.FromAPB1(*rows, *disks).Encode(os.Stdout)
	}
	if *emitSweep {
		return config.ExampleSweep(*rows, *disks).Encode(os.Stdout)
	}
	if *sweepPath != "" {
		return runSweep(ctx, *sweepPath, *sweepJSON, *sweepWorkers)
	}

	var in *core.Input
	switch {
	case *configPath != "":
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		doc, err := config.Parse(f)
		if err != nil {
			return err
		}
		in, err = doc.Build()
		if err != nil {
			return err
		}
	case *apb1:
		doc := config.FromAPB1(*rows, *disks)
		var err error
		in, err = doc.Build()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -config or -apb1 is required (try -emit-example)")
	}

	in.Rank.TopN = *topN
	in.Rank.LeadingPercent = *leadingPct
	in.Parallelism = *parallelism
	in.DisablePruning = *noPrune

	res, err := core.AdviseContext(ctx, in)
	if err != nil {
		return err
	}
	fmt.Print(analysis.Report(res))
	// The evaluated/skipped split depends on worker scheduling, so the
	// prune statistics go to stderr and stdout stays byte-stable. The
	// blank line separating them from the report stays on stdout, so a
	// terminal still shows one between the two.
	fmt.Println()
	if ps := res.PruneStats; ps.Enabled {
		fmt.Fprintf(os.Stderr, "pruning: %d survivors, %d evaluated, %d skipped by lower bound (%.1f%%)\n",
			ps.Survivors, ps.Evaluated, ps.Skipped, pct(ps.Skipped, ps.Survivors))
	} else {
		fmt.Fprintf(os.Stderr, "pruning: disabled (%d candidates evaluated)\n", ps.Evaluated)
	}

	if *profileClass >= 0 {
		prof, err := analysis.DiskAccessProfile(in.Schema, res.Best(), *profileClass)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(prof)
	}

	if *candidatesCSV != "" {
		if err := writeFile(*candidatesCSV, func(f *os.File) error {
			return analysis.WriteCandidatesCSV(f, in.Schema, res.Ranked)
		}); err != nil {
			return err
		}
		fmt.Printf("\nranked candidates written to %s\n", *candidatesCSV)
	}
	if *statsCSV != "" {
		if err := writeFile(*statsCSV, func(f *os.File) error {
			return analysis.WriteQueryStatsCSV(f, in.Schema, res.Best())
		}); err != nil {
			return err
		}
		fmt.Printf("winner statistics written to %s\n", *statsCSV)
	}

	if *simulate > 0 {
		best := res.Best()
		cfg := res.CostModelConfig()
		fmt.Printf("\n== simulation of top candidate (%d queries) ==\n", *simulate)
		if *simRate > 0 {
			m, err := sim.MultiUser(cfg, best, *simulate, *simRate, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("multi-user @ %.1f q/s: mean %v  p95 %v  max %v  makespan %v\n",
				*simRate, m.MeanResponse, m.P95Response, m.MaxResponse, m.Makespan)
		} else {
			m, _, err := sim.SingleUser(cfg, best, *simulate, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("single-user: mean %v  p95 %v  max %v (analytical %v)\n",
				m.MeanResponse, m.P95Response, m.MaxResponse, best.ResponseTime)
		}
	}
	return nil
}

// runSweep evaluates the scenario grid of a sweep definition file and
// prints the tabular report plus the recommendation (smallest disk count
// meeting the response-time target, when one is configured).
func runSweep(ctx context.Context, path, jsonPath string, workers int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	doc, err := config.ParseSweep(f)
	if err != nil {
		return err
	}
	base, grid, target, err := doc.Build()
	if err != nil {
		return err
	}
	rep, err := sweep.Run(ctx, base, grid, sweep.Options{Workers: workers, ResponseTarget: target})
	if err != nil {
		return err
	}
	fmt.Printf("sweep: %d scenarios (shared-state pipeline)\n", len(rep.Scenarios))
	var evaluated, skipped int
	for _, sr := range rep.Scenarios {
		if sr.Result != nil {
			evaluated += sr.Result.PruneStats.Evaluated
			skipped += sr.Result.PruneStats.Skipped
		}
	}
	if total := evaluated + skipped; total > 0 {
		fmt.Fprintf(os.Stderr, "pruning: %d candidates evaluated, %d skipped by lower bound (%.1f%%)\n",
			evaluated, skipped, pct(skipped, total))
	}
	fmt.Println()
	if err := rep.Table(os.Stdout); err != nil {
		return err
	}
	if best := rep.Best(); best != nil {
		switch {
		case best.MeetsTarget(target):
			fmt.Printf("\nrecommended: %s (response target %v)\n", best.Name, target)
		case target > 0:
			fmt.Printf("\nno scenario meets the %v response target; fastest: %s\n", target, best.Name)
		default:
			fmt.Printf("\nfastest scenario: %s\n", best.Name)
		}
		fmt.Printf("  winner %s  response %v  I/O cost %v  disks %d\n",
			best.Best().Frag.Name(best.Input.Schema),
			best.Best().ResponseTime.Round(time.Millisecond/10),
			best.Best().AccessCost.Round(time.Millisecond/10),
			best.Input.Disk.Disks)
	}
	if jsonPath != "" {
		if err := writeFile(jsonPath, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Printf("\nsweep report written to %s\n", jsonPath)
	}
	return nil
}

// pct is the skipped-fraction percentage, 0 when the total is zero.
func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
