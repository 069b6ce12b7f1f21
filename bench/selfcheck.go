package main

import (
	"fmt"
	"math"
	"os"
)

// selfCheck is the repeatability evidence, apart from the contract's
// command: it runs every workload's end-to-end run twice in sequence, prints
// the two sets side by side and returns non-zero when any metric of any
// workload differs between them by more than its own bound.
func selfCheck(dataSeed, querySeed int64, seconds int) int {
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		var runs [2]*result
		for k := range runs {
			deadline := armDeadline(w.name, seconds)
			res, err := endToEndRun(w, dataSeed, querySeed, seconds)
			deadline.Stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, k+1, err)
				return 1
			}
			if res.failed > 0 {
				fmt.Printf("%s run %d: %d of %d operations failed: %v\n", w.name, k+1, res.failed, res.attempted, res.failures)
				bad++
			}
			runs[k] = res
		}
		fmt.Printf("%s\n  %-22s %14s %14s %9s %7s\n", w.name, "metric", "run 1", "run 2", "diff", "bound")
		for _, d := range endToEnd {
			a, b := runs[0].values[d.name], runs[1].values[d.name]
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			mark := ""
			if diff > d.bound {
				mark = "  <-- outside the bound"
				bad++
			}
			fmt.Printf("  %-22s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", d.name, a, b, 100*diff, 100*d.bound, mark)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d readings outside their bounds\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric repeated within its bound")
	return 0
}
