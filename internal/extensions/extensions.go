// Package extensions implements the two companion problems the paper
// derives from the same time-expansion approach (Sec. VI):
//
//   - MaxBulk: NetStitcher-style bulk transfer maximization — move as much
//     delay-tolerant "background" volume as possible using only leftover
//     bandwidth that is already paid for, at zero marginal cost
//     (objective (11) with paid-headroom capacities);
//   - MaxUnderBudget: transfer volume maximization under a hard budget on
//     traffic costs (objective (11) plus the budget constraint
//     sum a_ij * X_ij * I <= B), together with AdmitFiles, a greedy
//     whole-file admission loop answering the paper's "maximum number of
//     files" question.
//
// Unlike NetStitcher, which moves a single file, both problems handle
// multiple files with distinct deadlines, as in the paper.
package extensions

import (
	"fmt"
	"math"
	"sort"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/timegraph"
)

// Result is the outcome of an extension optimization.
type Result struct {
	// Schedule realizes the (possibly partial) transfers.
	Schedule *schedule.Schedule
	// Delivered maps file ID to the delivered volume in GB.
	Delivered map[int]float64
	// TotalDelivered is the objective value: the sum of Delivered.
	TotalDelivered float64
	// CostPerSlot is the charged cost per interval after committing the
	// schedule (unchanged for MaxBulk by construction).
	CostPerSlot float64
	// Status is the LP outcome.
	Status lp.Status
}

// capacityFunc abstracts the per-edge capacity the two problems differ on.
type capacityFunc func(i, j netmodel.DC, slot int) float64

// MaxBulk maximizes the bulk volume delivered within each file's deadline
// using only the paid headroom of every link and slot: capacity that the
// charging scheme has already billed but that current commitments leave
// idle. The resulting plan is free: committing it does not change the
// charged cost.
func MaxBulk(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	return solveMaxVolume(ledger, files, t,
		func(i, j netmodel.DC, slot int) float64 { return ledger.PaidHeadroom(i, j, slot) },
		nil)
}

// MaxUnderBudget maximizes delivered volume subject to the charged cost per
// interval staying at or below budgetPerSlot (the paper's budget B divided
// by the charging-period length). Full residual capacities are available;
// the budget is what limits spending.
func MaxUnderBudget(ledger *netmodel.Ledger, files []netmodel.File, t int, budgetPerSlot float64) (*Result, error) {
	if budgetPerSlot < 0 || math.IsNaN(budgetPerSlot) {
		return nil, fmt.Errorf("extensions: invalid budget %v", budgetPerSlot)
	}
	return solveMaxVolume(ledger, files, t,
		func(i, j netmodel.DC, slot int) float64 { return ledger.Residual(i, j, slot) },
		&budgetPerSlot)
}

// solveMaxVolume builds and solves the shared time-expanded LP.
func solveMaxVolume(ledger *netmodel.Ledger, files []netmodel.File, t int,
	capacity capacityFunc, budgetPerSlot *float64) (*Result, error) {

	nw := ledger.Network()
	if len(files) == 0 {
		return &Result{
			Schedule:    &schedule.Schedule{},
			Delivered:   map[int]float64{},
			CostPerSlot: ledger.CostPerSlot(),
			Status:      lp.Optimal,
		}, nil
	}
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil {
		return nil, err
	}
	tg, err := timegraph.Build(nw, t, horizon)
	if err != nil {
		return nil, err
	}
	m := lp.NewModel()
	m.SetMaximize()
	// Delivered volume per file.
	delivered := make([]lp.VarID, len(files))
	for k, f := range files {
		delivered[k] = m.AddVariable(0, f.Size, 1, fmt.Sprintf("delivered_f%d", f.ID))
	}
	// Transfer variables over each file's pruned subgraph. A structurally
	// undeliverable file has none (nil mvars[k]); its delivery is forced to
	// zero below.
	mvars := make([][]lp.VarID, len(files))
	reach := make([]timegraph.Reachability, len(files))
	for k, f := range files {
		reach[k] = tg.FileReachability(f)
		if reach[k].FromSrc[f.Dst] > f.Deadline {
			continue
		}
		mvars[k] = make([]lp.VarID, tg.NumEdges())
		for i := range mvars[k] {
			mvars[k][i] = -1
		}
		tg.WindowEdges(f, func(e timegraph.Edge) {
			if !reach[k].EdgeAllowed(f, e) {
				return
			}
			obj := 0.0
			if !e.Storage {
				obj = -netmodel.Epsilon
			}
			mvars[k][e.Index] = m.AddVariable(0, f.Size, obj,
				fmt.Sprintf("M_f%d_%d>%d@%d", f.ID, int(e.From), int(e.To), e.Slot))
		})
	}
	// Optional budget machinery.
	var xvars map[netmodel.Link]lp.VarID
	if budgetPerSlot != nil {
		xvars = make(map[netmodel.Link]lp.VarID)
		var bidx []lp.VarID
		var bval []float64
		nw.Links(func(l netmodel.Link, price, _ float64) {
			v := m.AddVariable(ledger.ChargedVolume(l.From, l.To), math.Inf(1), 0, fmt.Sprintf("X_%s", l))
			xvars[l] = v
			bidx = append(bidx, v)
			bval = append(bval, price)
		})
		if _, err := m.AddConstraint(lp.LE, *budgetPerSlot, bidx, bval); err != nil {
			return nil, err
		}
	}
	// Capacity (and charge epigraph rows under a budget).
	var rowErr error
	tg.Edges(func(e timegraph.Edge) {
		if rowErr != nil || e.Storage {
			return
		}
		var idx []lp.VarID
		var val []float64
		for k := range files {
			if mvars[k] == nil {
				continue
			}
			if v := mvars[k][e.Index]; v >= 0 {
				idx = append(idx, v)
				val = append(val, 1)
			}
		}
		if len(idx) == 0 {
			return
		}
		if _, err := m.AddConstraint(lp.LE, capacity(e.From, e.To, e.Slot), idx, val); err != nil {
			rowErr = err
			return
		}
		if xvars != nil {
			committed := ledger.VolumeAt(e.From, e.To, e.Slot)
			idx = append(idx, xvars[netmodel.Link{From: e.From, To: e.To}])
			val = append(val, -1)
			if _, err := m.AddConstraint(lp.LE, -committed, idx, val); err != nil {
				rowErr = err
			}
		}
	})
	if rowErr != nil {
		return nil, rowErr
	}
	// Conservation with the delivered variable as source supply and
	// destination demand.
	n := nw.NumDCs()
	for k, f := range files {
		if mvars[k] == nil {
			// Force zero delivery.
			if _, err := m.AddConstraint(lp.EQ, 0, []lp.VarID{delivered[k]}, []float64{1}); err != nil {
				return nil, err
			}
			continue
		}
		first, last, _ := tg.FileWindow(f)
		deadlineLayer := f.Release + f.Deadline
		if clamp := tg.Start() + tg.Horizon(); deadlineLayer > clamp {
			deadlineLayer = clamp
		}
		r := reach[k]
		for layer := first; layer <= deadlineLayer; layer++ {
			for dc := 0; dc < n; dc++ {
				d := netmodel.DC(dc)
				if !r.Allowed(f, d, layer) {
					continue
				}
				var idx []lp.VarID
				var val []float64
				if layer <= last {
					for to := 0; to < n; to++ {
						if e, ok := tg.EdgeAt(d, netmodel.DC(to), layer); ok {
							if v := mvars[k][e.Index]; v >= 0 {
								idx = append(idx, v)
								val = append(val, 1)
							}
						}
					}
				}
				if layer > first {
					for from := 0; from < n; from++ {
						if e, ok := tg.EdgeAt(netmodel.DC(from), d, layer-1); ok {
							if v := mvars[k][e.Index]; v >= 0 {
								idx = append(idx, v)
								val = append(val, -1)
							}
						}
					}
				}
				switch {
				case layer == f.Release && d == f.Src:
					idx = append(idx, delivered[k])
					val = append(val, -1)
				case layer == deadlineLayer && d == f.Dst:
					idx = append(idx, delivered[k])
					val = append(val, 1)
				}
				if len(idx) == 0 {
					continue
				}
				if _, err := m.AddConstraint(lp.EQ, 0, idx, val); err != nil {
					return nil, err
				}
			}
		}
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return nil, fmt.Errorf("extensions: solving max-volume LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return &Result{Status: sol.Status}, nil
	}
	res := &Result{
		Schedule:  &schedule.Schedule{},
		Delivered: make(map[int]float64, len(files)),
		Status:    lp.Optimal,
	}
	const tol = 1e-5
	var effective []netmodel.File
	for k, f := range files {
		dv := sol.Value(delivered[k])
		if dv < 0 {
			dv = 0
		}
		res.Delivered[f.ID] = dv
		res.TotalDelivered += dv
		if dv > tol {
			ef := f
			ef.Size = dv
			effective = append(effective, ef)
		}
		for idx, v := range mvars[k] {
			if v < 0 {
				continue
			}
			if amount := sol.Value(v); amount > tol {
				e := tg.Edge(idx)
				res.Schedule.Add(schedule.Action{
					FileID: f.ID, From: e.From, To: e.To, Slot: e.Slot, Amount: amount,
				})
			}
		}
	}
	// Independent verification against the partial-delivery file set.
	vc := schedule.VerifyConfig{
		Residual: func(i, j netmodel.DC, slot int) float64 { return ledger.Residual(i, j, slot) },
		Tol:      1e-4,
	}
	if err := schedule.Verify(res.Schedule, nw, effective, vc); err != nil {
		return nil, fmt.Errorf("extensions: invalid schedule produced: %w", err)
	}
	res.CostPerSlot, err = res.Schedule.Cost(ledger)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AdmitFiles answers the paper's budget question in whole files: it
// greedily admits files (smallest first) as long as the admitted set can be
// delivered in full within budgetPerSlot, and returns the admitted IDs with
// the final plan. Greedy by size is a heuristic — the exact problem is an
// integer program — but it matches the provider's goal of satisfying as
// many requests as possible.
func AdmitFiles(ledger *netmodel.Ledger, files []netmodel.File, t int, budgetPerSlot float64) ([]int, *Result, error) {
	order := make([]netmodel.File, len(files))
	copy(order, files)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Size != order[j].Size {
			return order[i].Size < order[j].Size
		}
		return order[i].ID < order[j].ID
	})
	var admitted []netmodel.File
	var admittedIDs []int
	var best *Result
	for _, f := range order {
		trial := append(append([]netmodel.File(nil), admitted...), f)
		res, err := MaxUnderBudget(ledger, trial, t, budgetPerSlot)
		if err != nil {
			return nil, nil, err
		}
		if res.Status != lp.Optimal {
			continue
		}
		// Admission requires full delivery of every trial file.
		full := true
		for _, tf := range trial {
			if res.Delivered[tf.ID] < tf.Size-1e-5*(1+tf.Size) {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		admitted = trial
		admittedIDs = append(admittedIDs, f.ID)
		best = res
	}
	if best == nil {
		best = &Result{
			Schedule:    &schedule.Schedule{},
			Delivered:   map[int]float64{},
			CostPerSlot: ledger.CostPerSlot(),
			Status:      lp.Optimal,
		}
	}
	sort.Ints(admittedIDs)
	return admittedIDs, best, nil
}
