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
// multiple files with distinct deadlines, as in the paper. Both are solved
// by core.MaxVolume, on the same path master as Postcard.
package extensions

import (
	"fmt"
	"math"
	"sort"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
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

// MaxBulk maximizes the bulk volume delivered within each file's deadline
// using only the paid headroom of every link and slot: capacity that the
// charging scheme has already billed but that current commitments leave
// idle. The resulting plan is free: committing it does not change the
// charged cost.
func MaxBulk(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	return maxVolume(ledger, files, t, nil)
}

// MaxUnderBudget maximizes delivered volume subject to the charged cost per
// interval staying at or below budgetPerSlot (the paper's budget B divided
// by the charging-period length). Full residual capacities are available;
// the budget is what limits spending.
func MaxUnderBudget(ledger *netmodel.Ledger, files []netmodel.File, t int, budgetPerSlot float64) (*Result, error) {
	if err := checkBudget(budgetPerSlot); err != nil {
		return nil, err
	}
	return maxVolume(ledger, files, t, &budgetPerSlot)
}

// checkBudget rejects a budget that is negative, NaN or infinite.
func checkBudget(budgetPerSlot float64) error {
	if budgetPerSlot < 0 || math.IsNaN(budgetPerSlot) || math.IsInf(budgetPerSlot, 0) {
		return fmt.Errorf("extensions: invalid budget %v", budgetPerSlot)
	}
	return nil
}

// maxVolume solves either problem on core's path master (core.MaxVolume)
// and reports its outcome per file ID.
func maxVolume(ledger *netmodel.Ledger, files []netmodel.File, t int, budget *float64) (*Result, error) {
	out, delivered, err := core.MaxVolume(ledger, files, t, budget)
	if err != nil {
		return nil, err
	}
	if out.Status != lp.Optimal {
		return &Result{Status: out.Status}, nil
	}
	res := &Result{
		Schedule:    out.Schedule,
		Delivered:   make(map[int]float64, len(files)),
		CostPerSlot: out.CostPerSlot,
		Status:      lp.Optimal,
	}
	for k, f := range files {
		res.Delivered[f.ID] = delivered[k]
		res.TotalDelivered += delivered[k]
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
	if err := checkBudget(budgetPerSlot); err != nil {
		return nil, nil, err
	}
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
