// Quickstart: build the paper's figure-9 TTA, evaluate its three design
// axes — circuit area, execution time of the Crypt round kernel, and the
// analytical test cost — and compare the functional test against full
// scan. This is the smallest end-to-end use of the library's API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/sched"
	"repro/internal/testcost"
	"repro/internal/tta"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	// 1. An architecture: the paper's selected template (figure 9).
	arch := tta.Figure9()
	fmt.Println("architecture:", arch)

	// 2. Throughput: schedule the Crypt DES-round kernel onto it.
	kernel, err := crypt.BuildRoundKernel(1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.ScheduleContext(ctx, kernel, arch, sched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule    : %d cycles per DES round, %d moves on %d buses\n",
		res.Cycles, len(res.Moves), arch.Buses)
	fmt.Printf("per hash    : ~%d cycles (25 DES iterations x 16 rounds)\n",
		crypt.HashCycles(res.Cycles))

	// 3. Test cost: back-annotate pattern counts from the gate-level
	// library and evaluate equations (11)-(14).
	ann := testcost.NewAnnotator(arch.Width, 7)
	cost, err := ann.EvaluateContext(ctx, arch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test cost   : %d cycles functional vs %d cycles full scan (%.1fx)\n",
		cost.Total, cost.FullScanTotal, float64(cost.FullScanTotal)/float64(cost.Total))

	// 4. The full Table-1 breakdown.
	tbl, err := core.Table1For(ann, arch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(tbl.String())
}
