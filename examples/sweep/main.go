// What-if scenario sweep: the core WARLOCK workflow (paper §1: "evaluate
// allocation alternatives before the warehouse is built") expressed as a
// declarative grid. One base APB-1 configuration is swept across disk
// counts and query-mix variants through the shared, memoizing pipeline;
// the report ranks the scenarios and answers the capacity-planning
// question directly: what is the smallest disk count that still meets a
// 500 ms response-time target, and does it survive a hot query class?
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/warlock"
)

func main() {
	schema := warlock.APB1Schema(4_000_000)
	mix, err := warlock.APB1Mix(schema)
	if err != nil {
		log.Fatal(err)
	}
	base := &warlock.Input{Schema: schema, Mix: mix, Disk: warlock.DefaultDisk(64)}

	grid := &warlock.SweepGrid{
		Disks: []int{8, 16, 32, 64, 128},
		MixScales: []warlock.SweepMixScale{
			{Name: "base"},
			{Name: "hot-store-reports", Factors: map[string]float64{"Q3-store-month": 8}},
		},
	}
	target := 500 * time.Millisecond
	rep, err := warlock.New(warlock.WithResponseTarget(target)).Sweep(context.Background(), base, grid)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d scenarios (shared-state pipeline)\n\n", len(rep.Scenarios))
	if err := rep.Table(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if best := rep.Best(); best != nil {
		if best.MeetsTarget(target) {
			fmt.Printf("\nsmallest configuration meeting %v: %s\n", target, best.Name)
		} else {
			fmt.Printf("\nno configuration meets %v; fastest: %s\n", target, best.Name)
		}
		fmt.Printf("  winner %s, response %v, I/O cost %v\n",
			best.Best().Frag.Name(best.Input.Schema),
			best.Best().ResponseTime.Round(time.Millisecond),
			best.Best().AccessCost.Round(time.Millisecond))
	}

	// Every scenario result is a full advisory: drill into one exactly
	// like a plain Advise result (scenario-level failures are recorded
	// per scenario, so check Err before using Result).
	last := rep.Scenarios[len(rep.Scenarios)-1]
	if last.Err != nil {
		log.Fatalf("scenario %s: %v", last.Name, last.Err)
	}
	fmt.Printf("\ndrill-down into %q:\n", last.Name)
	fmt.Print(warlock.CandidateTable(last.Input.Schema, last.Result.Ranked[:min(3, len(last.Result.Ranked))]))
}
