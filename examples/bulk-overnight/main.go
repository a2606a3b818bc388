// Bulk-overnight demonstrates the first Sec. VI extension (the
// NetStitcher-style problem, generalized to many files with distinct
// deadlines): after a daytime traffic peak has set the charged volume on
// several links, the night slots offer leftover bandwidth that is already
// paid for. The example maximizes the bulk backup volume moved overnight
// at exactly zero marginal cost, including multi-hop store-and-forward
// relays through intermediate datacenters.
//
// Run with:
//
//	go run ./examples/bulk-overnight
package main

import (
	"fmt"
	"log"

	"github.com/interdc/postcard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bulk-overnight: ")

	nw, err := postcard.Complete(4, postcard.UniformPrices(3), 60)
	if err != nil {
		log.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(48))
	if err != nil {
		log.Fatal(err)
	}

	// Daytime peaks (slots 0-3) set the charged volume on a few links.
	type peak struct {
		from, to postcard.DC
		vol      float64
	}
	for _, p := range []peak{
		{0, 1, 40}, {1, 2, 35}, {0, 3, 25}, {3, 2, 30},
	} {
		for s := 0; s < 4; s++ {
			if err := ledger.Add(p.from, p.to, s, p.vol); err != nil {
				log.Fatal(err)
			}
		}
	}
	dayCost := ledger.CostPerSlot()
	fmt.Printf("after the daytime peak, the charged cost is %.1f per interval\n", dayCost)

	// Overnight bulk backups (slots 4 onward): delay-tolerant, large.
	backups := []postcard.File{
		{ID: 1, Src: 0, Dst: 2, Size: 300, Deadline: 8, Release: 4},
		{ID: 2, Src: 0, Dst: 1, Size: 150, Deadline: 6, Release: 4},
		{ID: 3, Src: 3, Dst: 2, Size: 200, Deadline: 8, Release: 4},
		{ID: 4, Src: 1, Dst: 2, Size: 120, Deadline: 5, Release: 4},
	}
	offered := 0.0
	for _, f := range backups {
		offered += f.Size
	}

	res, err := postcard.MaxBulk(ledger, backups, 4)
	if err != nil {
		log.Fatal(err)
	}
	if res.Status != postcard.StatusOptimal {
		log.Fatalf("unexpected status %v", res.Status)
	}
	fmt.Printf("\nbulk backups offered: %.0f GB; movable for free: %.1f GB (%.0f%%)\n",
		offered, res.TotalDelivered, 100*res.TotalDelivered/offered)
	for _, f := range backups {
		fmt.Printf("  file %d (D%d->D%d, %3.0f GB, %d slots): delivered %.1f GB\n",
			f.ID, int(f.Src), int(f.Dst), f.Size, f.Deadline, res.Delivered[f.ID])
	}

	// The headline property: committing the whole plan does not change the
	// charged cost by a single cent.
	if err := res.Schedule.Apply(ledger); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncharged cost after committing the bulk plan: %.1f per interval (was %.1f)\n",
		ledger.CostPerSlot(), dayCost)

	relays := 0.0
	for _, a := range res.Schedule.Actions() {
		if a.IsHold() {
			relays += a.Amount
		}
	}
	fmt.Printf("store-and-forward holdovers in the plan: %.1f GB-slots\n", relays)
	fmt.Println("\nwhy: multi-hop relays must wait for the next hop's paid headroom,")
	fmt.Println("so intermediate datacenters hold the data between slots — exactly the")
	fmt.Println("mechanism NetStitcher exploits, generalized here to many files.")
}
