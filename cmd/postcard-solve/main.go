// Command postcard-solve solves a single offline Postcard instance: it
// reads a JSON description of an inter-datacenter network and a set of
// files, runs the selected scheduler, and prints the resulting plan and
// cost per charging interval.
//
// Usage:
//
//	postcard-solve -input instance.json [-scheduler postcard] [-dot graph.dot]
//
// The instance format:
//
//	{
//	  "datacenters": 4,
//	  "links":  [{"from": 0, "to": 3, "price": 6, "capacity": 5}, ...],
//	  "files":  [{"id": 1, "src": 1, "dst": 3, "size": 8, "deadline": 4, "release": 3}, ...]
//	}
//
// With no -input, a built-in instance (the paper's Fig. 3 worked example)
// is solved.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "postcard-solve:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	input := flag.String("input", "", "instance JSON file ('-' for stdin; empty = built-in Fig. 3 example)")
	scheduler := flag.String("scheduler", "postcard", `scheduler name ("help" lists all)`)
	dotOut := flag.String("dot", "", "write the time-expanded graph in DOT format to this file")
	jsonOut := flag.Bool("json", false, "emit the plan as JSON instead of text")
	prof := cliutil.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	if *scheduler == "help" {
		fmt.Print(cliutil.SchedulerHelp())
		return nil
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	nw, files, err := loadInstance(*input)
	if err != nil {
		return err
	}
	slot := 0
	if len(files) > 0 {
		slot = files[0].Release
		for _, f := range files {
			if f.Release < slot {
				slot = f.Release
			}
		}
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		return err
	}

	if *dotOut != "" {
		horizon := 1
		for _, f := range files {
			if h := f.Release + f.Deadline - slot; h > horizon {
				horizon = h
			}
		}
		dot, err := postcard.TimeExpandedDOT(nw, slot, horizon)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			return fmt.Errorf("writing DOT: %w", err)
		}
		fmt.Printf("time-expanded graph written to %s\n", *dotOut)
	}

	plan, cost, status, lpRes, err := solve(*scheduler, ledger, files, slot)
	if err != nil {
		return err
	}
	if status != postcard.StatusOptimal {
		return fmt.Errorf("no plan: solver status %v", status)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Scheduler   string            `json:"scheduler"`
			CostPerSlot float64           `json:"cost_per_slot"`
			Actions     []postcard.Action `json:"actions"`
		}{*scheduler, cost, plan.Actions()})
	}
	fmt.Printf("scheduler: %s\n", *scheduler)
	fmt.Printf("files: %d, actions: %d\n", len(files), plan.Len())
	for _, a := range plan.Actions() {
		fmt.Println(" ", a)
	}
	fmt.Printf("cost per interval: %.4f\n", cost)
	if lpRes != nil {
		fmt.Printf("lp: %d iterations (%d phase-1), %d vars, %d constraints\n",
			lpRes.Iterations, lpRes.Phase1Iter, lpRes.Variables, lpRes.Constraints)
		if tot := lpRes.SparseSolves + lpRes.DenseSolves; tot > 0 {
			density := 0.0
			if lpRes.SolveDim > 0 {
				density = float64(lpRes.SolveNNZ) / float64(lpRes.SolveDim)
			}
			fmt.Printf("lp basis solves: %.1f%% sparse (%d/%d), result density %.3f; %d devex resets, %d dual recomputes\n",
				100*float64(lpRes.SparseSolves)/float64(tot), lpRes.SparseSolves, tot,
				density, lpRes.DevexResets, lpRes.DualRecomputes)
		}
		if u := lpRes.VarUniverse + lpRes.PrunedVars; u > 0 {
			fmt.Printf("lp pruning: %d of %d universe variables removed (%.1f%%), %d conservation rows\n",
				lpRes.PrunedVars, u, 100*float64(lpRes.PrunedVars)/float64(u), lpRes.PrunedRows)
		}
		if lpRes.ColGenUniverse > 0 {
			fmt.Printf("lp column generation: %d rounds, %d of %d delayed columns materialized (%.1f%%)\n",
				lpRes.ColGenRounds, lpRes.ColGenColumns, lpRes.ColGenUniverse,
				100*float64(lpRes.ColGenColumns)/float64(lpRes.ColGenUniverse))
		}
		if lpRes.ColGenRows > 0 || lpRes.PathFallbacks > 0 {
			fmt.Printf("lp path pricing: %d lazy rows, %d settled by the volume master\n",
				lpRes.ColGenRows, lpRes.PathFallbacks)
		}
	}
	return nil
}

func loadInstance(path string) (*postcard.Network, []postcard.File, error) {
	if path == "" {
		return defaultInstance()
	}
	inst, err := cliutil.ReadInstanceFile(path)
	if err != nil {
		return nil, nil, err
	}
	return inst.Build()
}

func defaultInstance() (*postcard.Network, []postcard.File, error) {
	nw, files, err := postcard.Fig3Topology(0)
	if err != nil {
		return nil, nil, err
	}
	return nw, files, nil
}

func solve(name string, ledger *postcard.Ledger, files []postcard.File, slot int) (*postcard.Schedule, float64, postcard.SolveStatus, *postcard.Result, error) {
	switch name {
	case "postcard":
		res, err := postcard.New().Solve(ledger, files, slot)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		return res.Schedule, res.CostPerSlot, res.Status, res, nil
	case "postcard-warm":
		// One-shot use of the incremental solver: equivalent to "postcard"
		// for a single solve (the cache is empty), provided for parity with
		// the simulator's scheduler names.
		res, err := postcard.New(postcard.WithWarmStart()).Solve(ledger, files, slot)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		return res.Schedule, res.CostPerSlot, res.Status, res, nil
	case "postcard-path":
		// Offline solve under Dantzig-Wolfe path pricing; the result carries
		// the path-oracle counters alongside the usual LP stats.
		res, err := postcard.New(postcard.WithPricing(postcard.PricingPath)).Solve(ledger, files, slot)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		return res.Schedule, res.CostPerSlot, res.Status, res, nil
	}
	// Everything else — the admission fast tier, the flow baselines, direct,
	// postcard-nostore, and any future registry entry — resolves through the
	// scheduler registry and is run one-shot: plan the slot, then price the
	// plan on a trial ledger. Unknown names fail here with the registry's
	// name listing.
	sched, err := postcard.SchedulerByName(name)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	plan, err := sched.Schedule(ledger, files, slot)
	if errors.Is(err, postcard.ErrInfeasible) {
		return nil, 0, postcard.StatusInfeasible, nil, err
	}
	if err != nil {
		return nil, 0, 0, nil, err
	}
	cost, err := plan.Cost(ledger)
	return plan, cost, postcard.StatusOptimal, nil, err
}
