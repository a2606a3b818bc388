package core

import (
	"fmt"
	"slices"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/telemetry"
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
	pb, err := pathMaster(ledger, files, t, true)
	if err != nil {
		return nil, nil, err
	}
	if pb == nil {
		return &Result{Schedule: &schedule.Schedule{}, CostPerSlot: ledger.CostPerSlot(), Status: lp.Optimal}, nil, nil
	}
	pb.artPrice, pb.xCost, pb.paid, pb.maxCost = 1, 0, budget == nil, budget
	sol, err := pb.solveSeeded(nil, nil)
	if err != nil {
		return nil, nil, err
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
	sized := make([]netmodel.File, len(files))
	var served []netmodel.File
	for k, f := range files {
		delivered[k] = max(delivered[k], 0)
		f.Size = delivered[k]
		if sized[k] = f; f.Size > 1e-5 {
			served = append(served, f)
		}
	}
	if budget != nil && len(served) > 0 {
		// Objective (11) has no cost term, so under a budget any
		// maximum-volume plan within it is optimal. The cheapest is
		// Postcard's plan for the files at their delivered volumes, solved
		// on the same master, seeded with the columns that delivered them.
		// Its cost is at most this plan's, so the budget still holds.
		if pb, sol, err = pb.costMaster(pb, sized); err != nil {
			return nil, nil, err
		}
		telemetry.Add(&res.Work, sol.Work)
	}
	res.Schedule = pb.extractSchedule(sol)
	if err := pb.verify(res.Schedule, served); err != nil {
		return nil, nil, err
	}
	// Under MaxBulk the X columns cost nothing, so their values need not be
	// the charged volumes; the cost comes from the plan itself.
	if res.CostPerSlot, err = res.Schedule.Cost(ledger); err != nil {
		return nil, nil, err
	}
	return res, delivered, nil
}

// costMaster rebuilds pb's master as the cost master of its column family
// (Postcard's data, flow columns when pb's are) for files, which are
// parallel to pb.files, seeded with pb's columns, and solves it. It builds
// on recycle's allocations, or fresh ones when recycle is nil; recycle may
// be pb. The columns were found on a volume master that delivered every
// file, so the solve must end Optimal with no positive artificial.
func (pb *pathBuilder) costMaster(recycle *pathBuilder, files []netmodel.File) (*pathBuilder, *lp.Solution, error) {
	cols, arena, flow := slices.Clone(pb.cols), slices.Clone(pb.arena), pb.flow
	cm := newPathBuilder(recycle, pb.tg, pb.ledger, files, pb.reach, pb.conf)
	cm.flow = flow
	sol, err := cm.solveSeeded(cols, arena)
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.Optimal || cm.artificialResidue(sol) {
		return nil, nil, fmt.Errorf("core: cost master status %v with positive artificials on delivering columns", sol.Status)
	}
	return cm, sol, nil
}

// settle gives the verdict on pb's batch when its Postcard master ended
// non-Optimal or with a positive artificial, by FlowRates' rule. The volume
// master (artificials priced 1, X at cost 0, residual capacities, no budget
// row), seeded with the columns pb found, maximizes the volume delivered, so
// a positive artificial there is the exact Infeasible verdict. Otherwise
// Postcard's master is rebuilt with the volume master's columns and must
// deliver every file. Both masters are built fresh, which leaves pb's model
// and keys as they were. first is pb's result: the verdict counts its work
// and universe, with PathFallbacks 1.
func (pb *pathBuilder) settle(first *Result) (*Result, error) {
	vm := newPathBuilder(nil, pb.tg, pb.ledger, pb.files, pb.reach, pb.conf)
	vm.artPrice, vm.xCost = 1, 0
	sol, err := vm.solveSeeded(pb.cols, pb.arena)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		// The volume master is feasible and bounded by construction.
		return nil, fmt.Errorf("core: volume master status %v", sol.Status)
	}
	c := Counters{Work: first.Work, VarUniverse: first.VarUniverse, PrunedVars: first.PrunedVars, PathFallbacks: 1}
	telemetry.Add(&c.Work, sol.Work)
	m, p := vm, planner(nil)
	if !vm.artificialResidue(sol) {
		if m, sol, err = vm.costMaster(nil, pb.files); err != nil {
			return nil, err
		}
		telemetry.Add(&c.Work, sol.Work)
		p = m
	}
	res, err := m.result(sol, m.model, c, p)
	if err != nil {
		return nil, err
	}
	if p == nil {
		res.Status = lp.Infeasible
	}
	res.WarmStarted = false
	return res, nil
}

// pathMaster checks the batch and returns a path builder for it on the
// time-expanded graph its deadlines need, or nil for an empty batch. With
// prune each file's universe is pruned by hop distances, otherwise only by
// its window.
func pathMaster(ledger *netmodel.Ledger, files []netmodel.File, t int, prune bool) (*pathBuilder, error) {
	nw := ledger.Network()
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil || len(files) == 0 {
		return nil, err
	}
	tg, err := timegraph.Build(nw, t, horizon)
	if err != nil {
		return nil, err
	}
	reach := make([]timegraph.Reachability, len(files))
	for k, f := range files {
		reach[k] = timegraph.Permissive(nw.NumDCs())
		if prune {
			reach[k] = tg.FileReachability(f)
		}
	}
	return newPathBuilder(nil, tg, ledger, files, reach, Config{Pricing: PricingPath}), nil
}

// FlowPlan is the outcome of one of the flow baseline's LPs (FlowRates):
// its status and, when optimal, Rates[k][i], files[k]'s rate on the i-th
// link of Network.Links, with the charged cost per slot (the cost LP) or
// the common routable fraction λ (the concurrent phase).
type FlowPlan struct {
	Status      lp.Status
	Rates       [][]float64
	CostPerSlot float64
	Lambda      float64
}

// FlowRates solves an LP of the flow-based baseline (Sec. II-B) at slot t
// on the path master with the flow family's data (DESIGN.md §11): a column
// is a static overlay path carrying one rate through its file's window,
// and each file asks for its desired rate. It is the cost LP, or with
// concurrent the two-phase decomposition's phase 1, which maximizes the
// common fraction λ of every rate that fits the paid headroom. Phase 2 is
// the cost LP on a ledger holding phase 1's rates, for the rest of them.
//
// Both start from Sec. VI's data (artificials priced 1, X at cost 0); the
// concurrent phase adds paid-headroom capacities and the λ column. For
// the cost LP that first master maximizes the delivered rate: a positive
// artificial there is the Infeasible verdict, so none depends on
// pathBigM; otherwise the master is rebuilt with the cost data and the
// columns found. The ledger is not modified.
func FlowRates(ledger *netmodel.Ledger, files []netmodel.File, t int, concurrent bool) (*FlowPlan, error) {
	pb, err := pathMaster(ledger, files, t, false)
	if err != nil {
		return nil, err
	}
	if pb == nil {
		return &FlowPlan{Status: lp.Optimal, CostPerSlot: ledger.CostPerSlot(), Lambda: 1}, nil
	}
	pb.flow, pb.concurrent, pb.paid, pb.artPrice, pb.xCost = true, concurrent, concurrent, 1, 0
	sol, err := pb.solveSeeded(nil, nil)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		// Both masters are feasible and bounded by construction.
		return nil, fmt.Errorf("core: flow master status %v", sol.Status)
	}
	if concurrent {
		return &FlowPlan{Status: lp.Optimal, Rates: pb.flowRates(sol), Lambda: min(max(sol.Value(pb.lambda), 0), 1)}, nil
	}
	if pb.artificialResidue(sol) {
		return &FlowPlan{Status: lp.Infeasible}, nil
	}
	if pb, sol, err = pb.costMaster(pb, files); err != nil {
		return nil, err
	}
	return &FlowPlan{Status: lp.Optimal, Rates: pb.flowRates(sol), CostPerSlot: pb.chargedCost(sol)}, nil
}
