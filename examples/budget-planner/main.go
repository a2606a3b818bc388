// Budget-planner demonstrates the second Sec. VI extension: given a hard
// budget on inter-datacenter traffic costs, how many transfer requests can
// a provider admit, and how much volume can it move? The example sweeps a
// range of per-interval budgets over the same request set and prints the
// admitted files and the delivered volume at each budget.
//
// Run with:
//
//	go run ./examples/budget-planner
package main

import (
	"fmt"
	"log"

	"github.com/interdc/postcard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("budget-planner: ")

	nw, err := postcard.Complete(5, postcard.UniformPrices(11), 50)
	if err != nil {
		log.Fatal(err)
	}

	// A peak-hour batch of transfer requests of varying size and urgency.
	requests := []postcard.File{
		{ID: 1, Src: 0, Dst: 3, Size: 20, Deadline: 2, Release: 0},
		{ID: 2, Src: 1, Dst: 4, Size: 45, Deadline: 3, Release: 0},
		{ID: 3, Src: 2, Dst: 0, Size: 12, Deadline: 1, Release: 0},
		{ID: 4, Src: 3, Dst: 1, Size: 70, Deadline: 4, Release: 0},
		{ID: 5, Src: 4, Dst: 2, Size: 8, Deadline: 2, Release: 0},
		{ID: 6, Src: 0, Dst: 4, Size: 35, Deadline: 3, Release: 0},
	}
	total := 0.0
	for _, f := range requests {
		total += f.Size
	}
	fmt.Printf("request batch: %d files, %.0f GB total\n\n", len(requests), total)

	fmt.Printf("%10s %22s %18s %18s\n", "budget", "admitted files", "admitted GB", "fractional GB")
	for _, budget := range []float64{25, 50, 100, 200, 400, 800} {
		ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
		if err != nil {
			log.Fatal(err)
		}
		// Whole-file admission (greedy, smallest first).
		ids, res, err := postcard.AdmitFiles(ledger, requests, 0, budget)
		if err != nil {
			log.Fatal(err)
		}
		admittedGB := 0.0
		for _, id := range ids {
			admittedGB += res.Delivered[id]
		}
		// Fractional upper bound: the LP relaxation's max volume.
		frac, err := postcard.MaxUnderBudget(ledger, requests, 0, budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.0f %22s %18.1f %18.1f\n", budget, formatIDs(ids), admittedGB, frac.TotalDelivered)
	}

	fmt.Println("\nthe fractional column is the LP upper bound (objective (11) plus")
	fmt.Println("the budget constraint); whole-file admission trails it because the")
	fmt.Println("provider cannot deliver half a request.")
}

// formatIDs renders a file-ID list compactly, e.g. "1 3 5" or "-".
func formatIDs(ids []int) string {
	if len(ids) == 0 {
		return "-"
	}
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprint(id)
	}
	return out
}
