package core

import (
	"fmt"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/timegraph"
)

// MaxVolume solves the Sec. VI extension problems at slot t: it maximizes
// the volume of files delivered by their deadlines, less Epsilon per GB
// moved over a link (objective (11)). With a nil budget it is MaxBulk:
// capacities are the ledger's paid headroom, so the plan is free. Otherwise
// it is MaxUnderBudget: capacities are the residuals, and the charged cost
// per slot Σ price·X stays at or below *budget, which must be finite and
// nonnegative.
//
// Both run on the Postcard path master with different data (DESIGN.md
// §11): the artificials cost 1, so each counts its file's undelivered GB
// and minimizing Epsilon·transfers + undelivered is objective (11), and the
// X columns cost nothing. A positive artificial is therefore the answer,
// not a restricted verdict, and a file that cannot reach its destination
// by its deadline delivers 0 instead of failing the solve.
//
// It returns the outcome, and when that is optimal the plan, the charged
// cost per slot after committing it, and the volume delivered per file
// (parallel to files). The ledger is not modified.
func MaxVolume(ledger *netmodel.Ledger, files []netmodel.File, t int, budget *float64) (*Result, []float64, error) {
	if len(files) == 0 {
		return &Result{
			Schedule:    &schedule.Schedule{},
			CostPerSlot: ledger.CostPerSlot(),
			Status:      lp.Optimal,
		}, nil, nil
	}
	nw := ledger.Network()
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil {
		return nil, nil, err
	}
	tg, err := timegraph.Build(nw, t, horizon)
	if err != nil {
		return nil, nil, err
	}
	reach := make([]timegraph.Reachability, len(files))
	for k, f := range files {
		reach[k] = tg.FileReachability(f)
	}
	pb := newPathBuilder(nil, tg, ledger, files, reach, Config{Pricing: PricingPath})
	pb.artPrice, pb.xCost, pb.paid, pb.maxCost = 1, 0, budget == nil, budget
	if err := pb.build(); err != nil {
		return nil, nil, err
	}
	basis := mappedBasis(pb.colKeys, pb.rowKeys, nil, nil, pb.crashNewFiles)
	sol, err := lp.SolvePriced(pb.model, pb, &lp.Options{InitialBasis: basis})
	if err != nil {
		return nil, nil, fmt.Errorf("core: solving max-volume path master: %w", err)
	}
	res, err := pb.result(sol, pb.model, Counters{
		Work:        sol.Work,
		VarUniverse: pb.varUniverse,
		PrunedVars:  pb.prunedVars,
	}, nil)
	if err != nil || res.Status != lp.Optimal {
		return res, nil, err
	}
	delivered := make([]float64, len(files))
	for _, c := range pb.cols {
		delivered[c.file] += sol.Value(c.v)
	}
	// The plan delivers each file's delivered volume, which is what it is
	// verified against; volumes at solver-noise scale carry no actions.
	var served []netmodel.File
	for k, f := range files {
		delivered[k] = max(delivered[k], 0)
		if delivered[k] > 1e-5 {
			f.Size = delivered[k]
			served = append(served, f)
		}
	}
	res.Schedule = pb.extractSchedule(sol)
	if err := pb.verify(res.Schedule, served); err != nil {
		return nil, nil, err
	}
	// The X columns cost nothing here, so their values need not be the
	// charged volumes; the cost comes from the plan itself.
	if res.CostPerSlot, err = res.Schedule.Cost(ledger); err != nil {
		return nil, nil, err
	}
	return res, delivered, nil
}
