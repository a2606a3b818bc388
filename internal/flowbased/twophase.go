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
// charged volume of each link adds no cost). Phase 2 routes the remaining
// (1-λ) fraction of every rate as a minimum-cost multicommodity flow
// against the true charging objective.
//
// The single-LP Solve dominates this decomposition by construction; tests
// assert cost(Solve) <= cost(SolveTwoPhase). The decomposition is kept as
// the paper-literal algorithm and for ablation studies.
func SolveTwoPhase(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	nw := ledger.Network()
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return emptyResult(ledger), nil
	}

	end := t + horizon
	lambda, f1, err := solveConcurrentPhase(ledger, files, t, end)
	if err != nil {
		return nil, err
	}
	f2, status, sol2, _, xvars, err := solveResidualPhase(ledger, files, t, end, lambda, f1)
	if err != nil {
		return nil, err
	}
	if status != lp.Optimal {
		return &Result{Status: status}, nil
	}

	res := newResult(len(files))
	links := linkList(nw)
	for _, f := range files {
		res.addFlow(f, links, func(l netmodel.Link) float64 { return f1[f.ID][l] + f2[f.ID][l] }, 1e-7)
	}
	cost := 0.0
	nw.Links(func(l netmodel.Link, price, _ float64) {
		cost += price * sol2.Value(xvars[l])
	})
	res.CostPerSlot = cost
	if err := ValidateRates(ledger, files, res.Rates); err != nil {
		return nil, fmt.Errorf("flowbased: two-phase produced invalid rates: %w", err)
	}
	return res, nil
}

func linkList(nw *netmodel.Network) []netmodel.Link {
	var links []netmodel.Link
	nw.Links(func(l netmodel.Link, _, _ float64) { links = append(links, l) })
	return links
}

// solveConcurrentPhase maximizes the common routable fraction λ within the
// paid headroom of every link and slot.
func solveConcurrentPhase(ledger *netmodel.Ledger, files []netmodel.File, t, end int) (float64, map[int]map[netmodel.Link]float64, error) {
	nw := ledger.Network()
	m := lp.NewModel()
	m.SetMaximize()
	links := linkList(nw)
	lam := m.AddVariable(0, 1, 1, "lambda")
	fvars := make(map[int]map[netmodel.Link]lp.VarID, len(files))
	for _, f := range files {
		vars := make(map[netmodel.Link]lp.VarID, len(links))
		for _, l := range links {
			vars[l] = m.AddVariable(0, f.DesiredRate()*float64(nw.NumDCs()),
				-netmodel.Epsilon, fmt.Sprintf("p1f%d_%s", f.ID, l))
		}
		fvars[f.ID] = vars
	}
	// Conservation with supply λ·r_k.
	n := nw.NumDCs()
	for _, f := range files {
		for node := 0; node < n; node++ {
			d := netmodel.DC(node)
			var idx []lp.VarID
			var val []float64
			for to := 0; to < n; to++ {
				if nw.HasLink(d, netmodel.DC(to)) {
					idx = append(idx, fvars[f.ID][netmodel.Link{From: d, To: netmodel.DC(to)}])
					val = append(val, 1)
				}
			}
			for from := 0; from < n; from++ {
				if nw.HasLink(netmodel.DC(from), d) {
					idx = append(idx, fvars[f.ID][netmodel.Link{From: netmodel.DC(from), To: d}])
					val = append(val, -1)
				}
			}
			switch d {
			case f.Src:
				idx = append(idx, lam)
				val = append(val, -f.DesiredRate())
			case f.Dst:
				idx = append(idx, lam)
				val = append(val, f.DesiredRate())
			}
			if len(idx) == 0 {
				continue
			}
			if _, err := m.AddConstraint(lp.EQ, 0, idx, val); err != nil {
				return 0, nil, err
			}
		}
	}
	// Capacity: paid headroom per (link, slot).
	for _, l := range links {
		for s := t; s < end; s++ {
			var idx []lp.VarID
			var val []float64
			for _, f := range files {
				if active(f, s) {
					idx = append(idx, fvars[f.ID][l])
					val = append(val, 1)
				}
			}
			if len(idx) == 0 {
				continue
			}
			head := ledger.PaidHeadroom(l.From, l.To, s)
			if _, err := m.AddConstraint(lp.LE, head, idx, val); err != nil {
				return 0, nil, err
			}
		}
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return 0, nil, fmt.Errorf("flowbased: phase-1 LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		// λ = 0 with zero flows is always feasible, so anything else is a
		// solver-level problem worth surfacing.
		return 0, nil, fmt.Errorf("flowbased: phase-1 LP status %v", sol.Status)
	}
	lambda := sol.Value(lam)
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	f1 := make(map[int]map[netmodel.Link]float64, len(files))
	for _, f := range files {
		f1[f.ID] = make(map[netmodel.Link]float64, len(links))
		for _, l := range links {
			if v := sol.Value(fvars[f.ID][l]); v > 1e-9 {
				f1[f.ID][l] = v
			}
		}
	}
	return lambda, f1, nil
}

// solveResidualPhase routes the remaining (1-λ) fraction of every file
// minimizing the charged cost, with phase-1 flows fixed.
func solveResidualPhase(ledger *netmodel.Ledger, files []netmodel.File, t, end int,
	lambda float64, f1 map[int]map[netmodel.Link]float64) (
	map[int]map[netmodel.Link]float64, lp.Status, *lp.Solution, []netmodel.Link, map[netmodel.Link]lp.VarID, error) {

	nw := ledger.Network()
	m := lp.NewModel()
	links := linkList(nw)
	fvars := make(map[int]map[netmodel.Link]lp.VarID, len(files))
	for _, f := range files {
		vars := make(map[netmodel.Link]lp.VarID, len(links))
		for _, l := range links {
			vars[l] = m.AddVariable(0, f.DesiredRate()*float64(nw.NumDCs()),
				netmodel.Epsilon, fmt.Sprintf("p2f%d_%s", f.ID, l))
		}
		fvars[f.ID] = vars
	}
	xvars := addChargeVars(m, ledger, links)
	// Conservation with the residual supply.
	n := nw.NumDCs()
	for _, f := range files {
		rem := (1 - lambda) * f.DesiredRate()
		for node := 0; node < n; node++ {
			d := netmodel.DC(node)
			var idx []lp.VarID
			var val []float64
			for to := 0; to < n; to++ {
				if nw.HasLink(d, netmodel.DC(to)) {
					idx = append(idx, fvars[f.ID][netmodel.Link{From: d, To: netmodel.DC(to)}])
					val = append(val, 1)
				}
			}
			for from := 0; from < n; from++ {
				if nw.HasLink(netmodel.DC(from), d) {
					idx = append(idx, fvars[f.ID][netmodel.Link{From: netmodel.DC(from), To: d}])
					val = append(val, -1)
				}
			}
			rhs := 0.0
			switch d {
			case f.Src:
				rhs = rem
			case f.Dst:
				rhs = -rem
			}
			if len(idx) == 0 {
				if rhs != 0 {
					return nil, 0, nil, nil, nil, fmt.Errorf("flowbased: file %d endpoint D%d has no links", f.ID, node)
				}
				continue
			}
			if _, err := m.AddConstraint(lp.EQ, rhs, idx, val); err != nil {
				return nil, 0, nil, nil, nil, err
			}
		}
	}
	// Capacity and charge rows with the phase-1 usage folded in.
	for _, l := range links {
		for s := t; s < end; s++ {
			var idx []lp.VarID
			var val []float64
			used1 := 0.0
			for _, f := range files {
				if active(f, s) {
					idx = append(idx, fvars[f.ID][l])
					val = append(val, 1)
					used1 += f1[f.ID][l]
				}
			}
			if len(idx) == 0 {
				continue
			}
			capacity := ledger.Residual(l.From, l.To, s) - used1
			if capacity < 0 {
				capacity = 0
			}
			if _, err := m.AddConstraint(lp.LE, capacity, idx, val); err != nil {
				return nil, 0, nil, nil, nil, err
			}
			committed := ledger.VolumeAt(l.From, l.To, s) + used1
			cidx := append(append([]lp.VarID(nil), idx...), xvars[l])
			cval := append(append([]float64(nil), val...), -1)
			if _, err := m.AddConstraint(lp.LE, -committed, cidx, cval); err != nil {
				return nil, 0, nil, nil, nil, err
			}
		}
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return nil, 0, nil, nil, nil, fmt.Errorf("flowbased: phase-2 LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Status, nil, nil, nil, nil
	}
	f2 := make(map[int]map[netmodel.Link]float64, len(files))
	for _, f := range files {
		f2[f.ID] = make(map[netmodel.Link]float64, len(links))
		for _, l := range links {
			if v := sol.Value(fvars[f.ID][l]); v > 1e-9 {
				f2[f.ID][l] = v
			}
		}
	}
	return f2, lp.Optimal, sol, links, xvars, nil
}
