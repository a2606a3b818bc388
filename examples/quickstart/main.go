// Quickstart walks through the paper's Fig. 3 worked example end to end:
// it builds the four-datacenter network, runs Postcard and every baseline
// on the same two files, prints the plans, and verifies the paper's
// numbers — direct 52, flow-based 50, Postcard 32.67 per charging interval.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/interdc/postcard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// The worked example of Sec. V: all links have capacity 5 GB/slot;
	// File 1 moves 8 GB from D2 to D4 within 4 slots, File 2 moves 10 GB
	// from D1 to D4 within 2 slots.
	nw, files, err := postcard.Fig3Topology(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Postcard quickstart — the paper's Fig. 3 worked example")
	fmt.Printf("network: %d datacenters, %d directed links\n", nw.NumDCs(), nw.NumLinks())
	for _, f := range files {
		fmt.Printf("  file %d: D%d -> D%d, %g GB, deadline %d slots (desired rate %g GB/slot)\n",
			f.ID, int(f.Src)+1, int(f.Dst)+1, f.Size, f.Deadline, f.DesiredRate())
	}
	fmt.Println()

	// 1. No routing, no scheduling: each file takes its direct link.
	direct := registryCost(nw, files, "direct")
	fmt.Printf("direct (no routing/scheduling): %.2f per interval\n", direct)

	// 2. The flow-based model: multi-path routing, constant rates, no
	// storage. File 2 saturates D1->D4, forcing File 1 onto D2->D3->D4.
	flow := registryCost(nw, files, "flow-based")
	fmt.Printf("flow-based:                     %.2f per interval\n", flow)

	// 3. Postcard: the LP on the time-expanded graph. File 1 trickles over
	// the cheap D2->D1 link, is *stored* at D1, and rides the already-paid
	// D1->D4 link after File 2 vacates it.
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		log.Fatal(err)
	}
	res, err := postcard.New().Solve(ledger, files, 0)
	if err != nil {
		log.Fatal(err)
	}
	if res.Status != postcard.StatusOptimal {
		log.Fatalf("unexpected status %v", res.Status)
	}
	fmt.Printf("postcard (store-and-forward):   %.2f per interval\n\n", res.CostPerSlot)

	fmt.Println("postcard plan (note the holds at D1 and the late use of D1->D4):")
	for _, a := range res.Schedule.Actions() {
		fmt.Println(" ", a)
	}

	// Re-verify the plan with the independent checker — the library does
	// this internally too, but it is part of the public API.
	if err := postcard.VerifySchedule(res.Schedule, nw, files, postcard.VerifyConfig{}); err != nil {
		log.Fatalf("schedule failed verification: %v", err)
	}
	fmt.Println("\nschedule verified: conservation, capacity, and deadlines all hold")
	fmt.Printf("savings vs direct: %.1f%%\n", 100*(direct-res.CostPerSlot)/direct)
}

// registryCost plans the files with the named registry scheduler on a
// fresh ledger, commits the plan, and returns the resulting cost per
// interval.
func registryCost(nw *postcard.Network, files []postcard.File, name string) float64 {
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		log.Fatal(err)
	}
	sched, err := postcard.SchedulerByName(name)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sched.Schedule(ledger, files, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Apply(ledger); err != nil {
		log.Fatal(err)
	}
	return ledger.CostPerSlot()
}
