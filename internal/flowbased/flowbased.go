// Package flowbased implements the paper's comparison baseline (Sec. II-B):
// routing without store-and-forward. Every file k becomes a flow with the
// constant desired rate r_k = F_k / T_k that lasts exactly T_k slots; the
// flow may split across multiple multi-hop paths but may never pause at an
// intermediate datacenter.
//
// Four schedulers are provided:
//
//   - Solve: the optimal flow model as a single LP minimizing the charged
//     cost directly, used for the evaluation figures. It is SolveTwoPhase's
//     cost phase run alone, with λ = 0;
//   - SolveTwoPhase: the paper's literal two-step decomposition — a
//     maximum-concurrent-flow LP that first fills capacity that is already
//     paid for, then a minimum-cost multicommodity-flow LP (the cost phase)
//     for the rest;
//   - SolveGreedy: a combinatorial cheapest-available-path heuristic
//     matching the narrative of the paper's Fig. 3 walk-through;
//   - Direct: no routing and no scheduling at all (Fig. 1a).
//
// The three LPs (Solve's and SolveTwoPhase's two) are solved on core's
// path master (core.FlowRates); this package assembles and checks their
// rates (ValidateRates).
package flowbased

import (
	"fmt"
	"math"
	"sort"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// LinkRate is a static per-link rate assignment for one file, in GB/slot.
type LinkRate struct {
	From, To netmodel.DC
	Rate     float64
}

// Result is the outcome of a flow-based scheduling decision.
type Result struct {
	// Schedule is the realized per-slot traffic: each link of a file's
	// flow carries Rate GB during every slot of the file's active window.
	Schedule *schedule.Schedule
	// Rates lists the static flow assignment per file ID.
	Rates map[int][]LinkRate
	// CostPerSlot is the charged cost per interval after committing.
	CostPerSlot float64
	// Status is the LP status (Optimal, or Infeasible when the rates do
	// not fit the residual capacities).
	Status lp.Status
}

// Solve computes the optimal flow-based assignment as a single LP: minimize
// sum price*X subject to static per-file conservation, per-slot link
// capacity, and the charged-volume epigraph rows. It is the strongest
// possible scheduler within the no-storage flow model. The LP is solved on
// core's path master (core.FlowRates), whose columns are static overlay
// paths.
func Solve(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	p, err := core.FlowRates(ledger, files, t, false)
	if err != nil {
		return nil, err
	}
	if p.Status != lp.Optimal {
		return &Result{Status: p.Status}, nil
	}
	return flowResult(ledger, files, p.Rates, 1e-5, p.CostPerSlot)
}

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
	p1, committed, err := concurrentFlows(ledger, files, t)
	if err != nil {
		return nil, err
	}
	var rest []netmodel.File // every file, or none when λ = 1
	for _, f := range files {
		if f.Size *= 1 - p1.Lambda; f.Size > 0 {
			rest = append(rest, f)
		}
	}
	p2, err := core.FlowRates(committed, rest, t, false)
	if err != nil {
		return nil, err
	}
	if p2.Status != lp.Optimal {
		return &Result{Status: p2.Status}, nil
	}
	for k, rates := range p2.Rates {
		for i, r := range rates {
			p1.Rates[k][i] += r
		}
	}
	return flowResult(ledger, files, p1.Rates, 1e-7, p2.CostPerSlot)
}

// concurrentFlows solves the decomposition's phase 1 and returns it with a
// copy of the ledger that holds its rates, which the cost phase routes the
// rest of every rate on top of.
func concurrentFlows(ledger *netmodel.Ledger, files []netmodel.File, t int) (*core.FlowPlan, *netmodel.Ledger, error) {
	p1, err := core.FlowRates(ledger, files, t, true)
	if err != nil {
		return nil, nil, err
	}
	fixed := newResult(len(files))
	links := linkList(ledger.Network())
	for k, f := range files {
		fixed.addFlow(f, links, func(i int) float64 { return p1.Rates[k][i] }, 1e-9)
	}
	committed := ledger.Clone()
	if err := fixed.Schedule.Apply(committed); err != nil {
		return nil, nil, err
	}
	return p1, committed, nil
}

func linkList(nw *netmodel.Network) []netmodel.Link {
	var links []netmodel.Link
	nw.Links(func(l netmodel.Link, _, _ float64) { links = append(links, l) })
	return links
}

// flowResult records every file's flow, rates[k][i] on the i-th link of
// Network.Links for file k, keeping the links whose rate exceeds tol, and
// checks it.
func flowResult(ledger *netmodel.Ledger, files []netmodel.File, rates [][]float64, tol, cost float64) (*Result, error) {
	res := newResult(len(files))
	links := linkList(ledger.Network())
	for k, f := range files {
		res.addFlow(f, links, func(i int) float64 { return rates[k][i] }, tol)
	}
	res.CostPerSlot = cost
	if err := ValidateRates(ledger, files, res.Rates); err != nil {
		return nil, fmt.Errorf("flowbased: LP produced invalid rates: %w", err)
	}
	return res, nil
}

// newResult is an optimal Result ready for addFlow.
func newResult(nfiles int) *Result {
	return &Result{
		Schedule: &schedule.Schedule{},
		Rates:    make(map[int][]LinkRate, nfiles),
		Status:   lp.Optimal,
	}
}

// addFlow records file f's static flow: every link whose rate exceeds tol,
// in the order of links, enters Rates[f.ID] and carries that rate in each
// slot of f's window. rate(i) is the rate on links[i].
func (res *Result) addFlow(f netmodel.File, links []netmodel.Link, rate func(i int) float64, tol float64) {
	var rates []LinkRate
	for i, l := range links {
		r := rate(i)
		if r <= tol {
			continue
		}
		rates = append(rates, LinkRate{From: l.From, To: l.To, Rate: r})
		for n := f.Release; n < f.Release+f.Deadline; n++ {
			res.Schedule.Add(schedule.Action{FileID: f.ID, From: l.From, To: l.To, Slot: n, Amount: r})
		}
	}
	res.Rates[f.ID] = rates
}

// ValidateRates independently checks a static rate assignment: per-file
// conservation at every node, rate nonnegativity, and per-slot residual
// capacity over each file's active window.
func ValidateRates(ledger *netmodel.Ledger, files []netmodel.File, rates map[int][]LinkRate) error {
	const tol = 1e-5
	nw := ledger.Network()
	n := nw.NumDCs()
	// Per-slot usage across files for the capacity check.
	type linkSlot struct {
		l netmodel.Link
		n int
	}
	use := make(map[linkSlot]float64)
	for _, f := range files {
		net := make([]float64, n)
		for _, lr := range rates[f.ID] {
			if lr.Rate < -tol {
				return fmt.Errorf("flowbased: negative rate %v on %v for file %d", lr.Rate, netmodel.Link{From: lr.From, To: lr.To}, f.ID)
			}
			if !nw.HasLink(lr.From, lr.To) {
				return fmt.Errorf("flowbased: rate on missing link %d->%d", lr.From, lr.To)
			}
			net[lr.From] += lr.Rate
			net[lr.To] -= lr.Rate
			for s := f.Release; s < f.Release+f.Deadline; s++ {
				use[linkSlot{netmodel.Link{From: lr.From, To: lr.To}, s}] += lr.Rate
			}
		}
		for node := 0; node < n; node++ {
			want := 0.0
			switch netmodel.DC(node) {
			case f.Src:
				want = f.DesiredRate()
			case f.Dst:
				want = -f.DesiredRate()
			}
			if math.Abs(net[node]-want) > tol*(1+math.Abs(want)) {
				return fmt.Errorf("flowbased: file %d conservation at D%d: net %v, want %v",
					f.ID, node, net[node], want)
			}
		}
	}
	for ls, u := range use {
		if avail := ledger.Residual(ls.l.From, ls.l.To, ls.n); u > avail+tol*(1+avail) {
			return fmt.Errorf("flowbased: link %v slot %d carries %v > residual %v", ls.l, ls.n, u, avail)
		}
	}
	return nil
}

// A greedy path uses only links with at least minSpare − spareTol GB/slot
// to spare. Both are typed, so their difference rounds once, as a run-time
// subtraction would.
const (
	minSpare float64 = 1e-6
	spareTol float64 = 1e-9
)

// SolveGreedy routes each file along successive cheapest available paths
// (by price, ignoring charge history), splitting across paths when the
// bottleneck is tighter than the desired rate. Files are processed in
// decreasing desired-rate order. It fails with an *UnroutedError when some
// rate cannot be placed.
func SolveGreedy(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	nw := ledger.Network()
	if _, err := netmodel.CheckBatch(nw, files, t); err != nil {
		return nil, err
	}
	order := make([]netmodel.File, len(files))
	copy(order, files)
	sort.Slice(order, func(i, j int) bool {
		if ri, rj := order[i].DesiredRate(), order[j].DesiredRate(); ri != rj {
			return ri > rj
		}
		return order[i].ID < order[j].ID
	})
	assigned := make(map[netmodel.Link]map[int]float64) // link -> slot -> rate
	addUse := func(l netmodel.Link, f netmodel.File, rate float64) {
		m, ok := assigned[l]
		if !ok {
			m = make(map[int]float64)
			assigned[l] = m
		}
		for s := f.Release; s < f.Release+f.Deadline; s++ {
			m[s] += rate
		}
	}
	res := newResult(len(files))
	links := linkList(nw)
	var unrouted []int
	for _, f := range order {
		remaining := f.DesiredRate()
		perLink := make(map[netmodel.Link]float64)
		// spare is what link l can still carry at a constant rate through
		// f's window: its least residual there less the largest rate this
		// solve has placed on it in the window, at least 0.
		spare := func(l netmodel.Link) float64 {
			avail, used := math.Inf(1), 0.0
			for s := f.Release; s < f.Release+f.Deadline; s++ {
				if r := ledger.Residual(l.From, l.To, s); r < avail {
					avail = r
				}
				if u := assigned[l][s]; u > used {
					used = u
				}
			}
			return max(avail-used, 0)
		}
		for remaining > 1e-9 {
			path, _, ok := nw.CheapestPath(f.Src, f.Dst, func(l netmodel.Link) float64 {
				if spare(l) < minSpare-spareTol {
					return math.Inf(1)
				}
				return nw.Price(l.From, l.To)
			})
			if !ok {
				unrouted = append(unrouted, f.ID)
				break
			}
			bottleneck := remaining
			for _, l := range path {
				if c := spare(l); c < bottleneck {
					bottleneck = c
				}
			}
			if bottleneck <= 1e-9 {
				unrouted = append(unrouted, f.ID)
				break
			}
			for _, l := range path {
				perLink[l] += bottleneck
				addUse(l, f, bottleneck)
			}
			remaining -= bottleneck
		}
		if remaining > 1e-9 {
			continue
		}
		res.addFlow(f, links, func(i int) float64 { return perLink[links[i]] }, 0)
	}
	if len(unrouted) > 0 {
		sort.Ints(unrouted)
		return nil, &UnroutedError{FileIDs: unrouted}
	}
	if err := ValidateRates(ledger, files, res.Rates); err != nil {
		return nil, fmt.Errorf("flowbased: greedy produced invalid rates: %w", err)
	}
	cost, err := res.Schedule.Cost(ledger)
	if err != nil {
		return nil, err
	}
	res.CostPerSlot = cost
	return res, nil
}

// Direct sends every file over its direct link at the desired rate — the
// "no routing or scheduling" baseline of Fig. 1(a). It fails with an
// *UnroutedError when a direct link is missing or too small.
func Direct(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	nw := ledger.Network()
	if _, err := netmodel.CheckBatch(nw, files, t); err != nil {
		return nil, err
	}
	res := newResult(len(files))
	use := make(map[netmodel.Link]map[int]float64)
	var unrouted []int
	for _, f := range files {
		l := netmodel.Link{From: f.Src, To: f.Dst}
		r := f.DesiredRate()
		if !nw.HasLink(l.From, l.To) {
			unrouted = append(unrouted, f.ID)
			continue
		}
		fits := true
		for s := f.Release; s < f.Release+f.Deadline; s++ {
			if use[l] == nil {
				use[l] = make(map[int]float64)
			}
			if use[l][s]+r > ledger.Residual(l.From, l.To, s)+1e-9 {
				fits = false
			}
		}
		if !fits {
			unrouted = append(unrouted, f.ID)
			continue
		}
		for s := f.Release; s < f.Release+f.Deadline; s++ {
			use[l][s] += r
		}
		res.addFlow(f, []netmodel.Link{l}, func(int) float64 { return r }, 0)
	}
	if len(unrouted) > 0 {
		sort.Ints(unrouted)
		return nil, &UnroutedError{FileIDs: unrouted}
	}
	cost, err := res.Schedule.Cost(ledger)
	if err != nil {
		return nil, err
	}
	res.CostPerSlot = cost
	return res, nil
}

// UnroutedError reports files whose desired rate could not be placed.
type UnroutedError struct {
	FileIDs []int
}

// Error implements error.
func (e *UnroutedError) Error() string {
	return fmt.Sprintf("flowbased: %d file(s) could not be routed at their desired rate: %v", len(e.FileIDs), e.FileIDs)
}
