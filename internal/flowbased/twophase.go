package flowbased

import (
	"fmt"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
)

// SolveTwoPhase implements the decomposition sketched in Sec. II-B of the
// paper. Phase 1 solves a maximum-concurrent-flow problem: find the largest
// common fraction λ of every file's desired rate that can be routed using
// only capacity that is already paid for (traffic below the current
// charged volume of each link adds no cost). Phase 2, the cost phase, routes
// the remaining (1-λ) fraction of every rate as a minimum-cost
// multicommodity flow against the true charging objective.
//
// Solve is the cost phase alone with λ = 0, so it dominates this
// decomposition by construction; tests assert cost(Solve) <=
// cost(SolveTwoPhase). The decomposition is kept as the paper-literal
// algorithm and for ablation studies.
func SolveTwoPhase(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	nw := ledger.Network()
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return emptyResult(ledger), nil
	}
	links := linkList(nw)
	lambda, f1, err := concurrentPhase(ledger, files, links, t, t+horizon)
	if err != nil {
		return nil, err
	}
	f2, cost, status, err := costPhase(ledger, files, links, t, t+horizon, lambda, f1)
	if err != nil {
		return nil, err
	}
	if status != lp.Optimal {
		return &Result{Status: status}, nil
	}
	return flowResult(ledger, files, links, func(k, i int) float64 { return f1[k][i] + f2[k][i] }, 1e-7, cost)
}

// concurrentPhase maximizes the common routable fraction λ within the paid
// headroom of every link and slot, and returns λ with the rates routing it.
func concurrentPhase(ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link, t, end int) (float64, [][]float64, error) {
	m := lp.NewModel()
	m.SetMaximize()
	lam := m.AddVariable(0, 1, 1, "")
	p, err := buildFlowLP(m, ledger, files, links, t, end, flowPhase{lam: lam})
	if err != nil {
		return 0, nil, err
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return 0, nil, fmt.Errorf("flowbased: concurrent-phase LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		// λ = 0 with zero flows is always feasible, so anything else is a
		// solver-level problem worth surfacing.
		return 0, nil, fmt.Errorf("flowbased: concurrent-phase LP status %v", sol.Status)
	}
	lambda := sol.Value(lam)
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	return lambda, p.rates(sol, len(files)), nil
}
