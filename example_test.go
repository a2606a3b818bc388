package postcard_test

import (
	"fmt"
	"log"

	"github.com/interdc/postcard"
)

// ExampleClient_Solve reproduces the paper's Fig. 3 worked example: two
// files, four datacenters, and an optimal plan that stores data at an
// intermediate datacenter to ride an already-paid link.
func ExampleClient_Solve() {
	nw, files, err := postcard.Fig3Topology(0)
	if err != nil {
		log.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		log.Fatal(err)
	}
	res, err := postcard.New().Solve(ledger, files, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost per interval: %.2f\n", res.CostPerSlot)
	// Output: cost per interval: 32.67
}

// ExampleSchedulerByName runs the paper's flow-based baseline on the same
// instance and commits its plan.
func ExampleSchedulerByName() {
	nw, files, err := postcard.Fig3Topology(0)
	if err != nil {
		log.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		log.Fatal(err)
	}
	flow, err := postcard.SchedulerByName("flow-based")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := flow.Schedule(ledger, files, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Apply(ledger); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost per interval: %.2f\n", ledger.CostPerSlot())
	// Output: cost per interval: 50.00
}

// ExampleMaxBulk moves bulk data for free over capacity whose charge is
// already sunk.
func ExampleMaxBulk() {
	nw, err := postcard.Complete(3, func(_, _ postcard.DC) float64 { return 2 }, 50)
	if err != nil {
		log.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		log.Fatal(err)
	}
	// A past burst paid for 20 GB/slot on 0->1.
	if err := ledger.Add(0, 1, 0, 20); err != nil {
		log.Fatal(err)
	}
	files := []postcard.File{{ID: 1, Src: 0, Dst: 1, Size: 100, Deadline: 3, Release: 1}}
	res, err := postcard.MaxBulk(ledger, files, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %.0f GB for free\n", res.TotalDelivered)
	// Output: delivered 60 GB for free
}

// ExampleRun drives the online simulator for a few slots.
func ExampleRun() {
	nw, err := postcard.Complete(4, func(_, _ postcard.DC) float64 { return 3 }, 100)
	if err != nil {
		log.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(4))
	if err != nil {
		log.Fatal(err)
	}
	gen, err := postcard.NewUniformWorkload(postcard.UniformWorkloadConfig{
		NumDCs: 4, MinFiles: 1, MaxFiles: 1,
		MinSizeGB: 10, MaxSizeGB: 10, MaxDeadline: 2, FixedDeadline: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := postcard.Run(ledger, &postcard.PostcardScheduler{}, gen, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled %d files, dropped %d\n", stats.ScheduledFiles, stats.DroppedFiles)
	// Output: scheduled 4 files, dropped 0
}
