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
// The three LPs (Solve's and SolveTwoPhase's two) come from one builder,
// buildFlowLP.
package flowbased

import (
	"fmt"
	"math"
	"sort"

	"github.com/interdc/postcard/internal/graph"
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

// active reports whether file f occupies the network during slot n.
func active(f netmodel.File, n int) bool {
	return n >= f.Release && n < f.Release+f.Deadline
}

// Solve computes the optimal flow-based assignment as a single LP: minimize
// sum price*X subject to static per-file conservation, per-slot link
// capacity, and the charged-volume epigraph rows. It is SolveTwoPhase's cost
// phase run with λ = 0 and no fixed flows, and the strongest possible
// scheduler within the no-storage flow model.
func Solve(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	nw := ledger.Network()
	horizon, err := netmodel.CheckBatch(nw, files, t)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return emptyResult(ledger), nil
	}
	links := linkList(nw)
	rates, cost, status, err := costPhase(ledger, files, links, t, t+horizon, 0, nil)
	if err != nil {
		return nil, err
	}
	if status != lp.Optimal {
		return &Result{Status: status}, nil
	}
	return flowResult(ledger, files, links, func(k, i int) float64 { return rates[k][i] }, 1e-5, cost)
}

// emptyResult is the decision for an empty file set.
func emptyResult(ledger *netmodel.Ledger) *Result {
	res := newResult(0)
	res.CostPerSlot = ledger.CostPerSlot()
	return res
}

func linkList(nw *netmodel.Network) []netmodel.Link {
	var links []netmodel.Link
	nw.Links(func(l netmodel.Link, _, _ float64) { links = append(links, l) })
	return links
}

// flowPhase selects the static-flow LP that buildFlowLP writes. With lam
// set it is the concurrent phase: the λ column carries every file's supply
// (coefficient −r at the source and +r at the destination, right-hand
// side 0), rate columns cost −ε, and the capacity rows allow the paid
// headroom. With lam < 0 it is the cost phase: the supply is the
// right-hand side (1−lambda)·r, rate columns cost +ε, the capacity rows
// allow the residual less the fixed flow, and a charged-volume column X
// per link, priced at the link, enters one charge row per (link, slot):
// rates + fixed − X ≤ −VolumeAt.
type flowPhase struct {
	lam    lp.VarID
	lambda float64
	// fixed[k][i] is file k's flow on link i that the concurrent phase
	// already routed (nil for none).
	fixed [][]float64
}

// flowLP is a static-flow LP over files: file k's rate on link i is column
// first + k·L + i (L = len(links)), and link i's charged volume, when the
// LP has one, is column x + i.
type flowLP struct {
	links    []netmodel.Link
	first, x lp.VarID
}

func (p *flowLP) rate(k, i int) lp.VarID { return p.first + lp.VarID(k*len(p.links)+i) }

// buildFlowLP appends to m the rate columns, the cost phase's
// charged-volume columns, one conservation row per (file, node), and for
// every link and slot in [t, end) that some file is active in a capacity
// row and the cost phase's charge row.
func buildFlowLP(m *lp.Model, ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link,
	t, end int, ph flowPhase) (*flowLP, error) {
	nw := ledger.Network()
	costLP := ph.lam < 0
	rateObj := -netmodel.Epsilon
	if costLP {
		rateObj = netmodel.Epsilon
	}
	p := &flowLP{links: links, first: lp.VarID(m.NumVariables()), x: -1}
	for _, f := range files {
		for range links {
			m.AddVariable(0, f.DesiredRate()*float64(nw.NumDCs()), rateObj, "")
		}
	}
	if costLP {
		p.x = lp.VarID(m.NumVariables())
		for _, l := range links {
			m.AddVariable(ledger.ChargedVolume(l.From, l.To), math.Inf(1), nw.Price(l.From, l.To), "")
		}
	}
	// out[d] and in[d] list the links leaving and entering d, by ascending
	// far end.
	out := make([][]int, nw.NumDCs())
	in := make([][]int, nw.NumDCs())
	for i, l := range links {
		out[l.From] = append(out[l.From], i)
		in[l.To] = append(in[l.To], i)
	}
	var idx []lp.VarID
	var val []float64
	for k, f := range files {
		r := f.DesiredRate()
		for d := range out {
			idx, val = idx[:0], val[:0]
			for _, i := range out[d] {
				idx, val = append(idx, p.rate(k, i)), append(val, 1)
			}
			for _, i := range in[d] {
				idx, val = append(idx, p.rate(k, i)), append(val, -1)
			}
			supply := 0.0
			switch netmodel.DC(d) {
			case f.Src:
				supply = r
			case f.Dst:
				supply = -r
			}
			rhs := 0.0
			switch {
			case costLP:
				rhs = (1 - ph.lambda) * supply
			case supply != 0:
				idx, val = append(idx, ph.lam), append(val, -supply)
			}
			if len(idx) == 0 {
				if rhs != 0 {
					return nil, fmt.Errorf("flowbased: file %d endpoint D%d has no links", f.ID, d)
				}
				continue
			}
			if _, err := m.AddConstraint(lp.EQ, rhs, idx, val); err != nil {
				return nil, err
			}
		}
	}
	for i, l := range links {
		for s := t; s < end; s++ {
			idx, val = idx[:0], val[:0]
			used := 0.0
			for k, f := range files {
				if active(f, s) {
					idx, val = append(idx, p.rate(k, i)), append(val, 1)
					if ph.fixed != nil {
						used += ph.fixed[k][i]
					}
				}
			}
			if len(idx) == 0 {
				continue
			}
			var capacity float64
			if costLP {
				if capacity = ledger.Residual(l.From, l.To, s) - used; capacity < 0 {
					capacity = 0
				}
			} else {
				capacity = ledger.PaidHeadroom(l.From, l.To, s)
			}
			if _, err := m.AddConstraint(lp.LE, capacity, idx, val); err != nil {
				return nil, err
			}
			if !costLP {
				continue
			}
			idx, val = append(idx, p.x+lp.VarID(i)), append(val, -1)
			if _, err := m.AddConstraint(lp.LE, -(ledger.VolumeAt(l.From, l.To, s) + used), idx, val); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// rates reads the solved rate columns as rates[k][i], file k on link i,
// with values at or below 1e-9 read as 0.
func (p *flowLP) rates(sol *lp.Solution, nfiles int) [][]float64 {
	L := len(p.links)
	all := make([]float64, nfiles*L)
	rates := make([][]float64, nfiles)
	for k := range rates {
		rates[k] = all[k*L : (k+1)*L]
		for i := range rates[k] {
			if v := sol.Value(p.rate(k, i)); v > 1e-9 {
				rates[k][i] = v
			}
		}
	}
	return rates
}

// costPhase routes the remaining (1−λ) of every file's desired rate at the
// least charged cost, on top of the fixed flows (nil for none), and returns
// the rates it adds and the cost per slot.
func costPhase(ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link, t, end int,
	lambda float64, fixed [][]float64) ([][]float64, float64, lp.Status, error) {
	m := lp.NewModel()
	p, err := buildFlowLP(m, ledger, files, links, t, end, flowPhase{lam: -1, lambda: lambda, fixed: fixed})
	if err != nil {
		return nil, 0, 0, err
	}
	sol, err := m.Solve(nil)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("flowbased: cost-phase LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, 0, sol.Status, nil
	}
	cost := 0.0
	for i, l := range links {
		cost += ledger.Network().Price(l.From, l.To) * sol.Value(p.x+lp.VarID(i))
	}
	return p.rates(sol, len(files)), cost, lp.Optimal, nil
}

// flowResult records every file's flow, rate(k, i) on link i for file k,
// keeping the links whose rate exceeds tol, and checks it.
func flowResult(ledger *netmodel.Ledger, files []netmodel.File, links []netmodel.Link,
	rate func(k, i int) float64, tol, cost float64) (*Result, error) {
	res := newResult(len(files))
	for k, f := range files {
		res.addFlow(f, links, func(i int) float64 { return rate(k, i) }, tol)
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

// graphForSlotWindow builds a graph.Graph whose edge capacities are the
// minimum residual over the slot window [from, to), minus extra usage.
func graphForSlotWindow(ledger *netmodel.Ledger, from, to int, extra map[netmodel.Link]float64) (*graph.Graph, map[int]netmodel.Link, error) {
	nw := ledger.Network()
	g := graph.New(nw.NumDCs())
	edgeLinks := make(map[int]netmodel.Link)
	var buildErr error
	nw.Links(func(l netmodel.Link, price, _ float64) {
		if buildErr != nil {
			return
		}
		avail := math.Inf(1)
		for s := from; s < to; s++ {
			if r := ledger.Residual(l.From, l.To, s); r < avail {
				avail = r
			}
		}
		avail -= extra[l]
		if avail < 0 {
			avail = 0
		}
		id, err := g.AddEdge(int(l.From), int(l.To), avail, price)
		if err != nil {
			buildErr = err
			return
		}
		edgeLinks[id] = l
	})
	return g, edgeLinks, buildErr
}

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
	if len(files) == 0 {
		return emptyResult(ledger), nil
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
		for remaining > 1e-9 {
			extra := make(map[netmodel.Link]float64, len(assigned))
			for l, slots := range assigned {
				maxUse := 0.0
				for s := f.Release; s < f.Release+f.Deadline; s++ {
					if u := slots[s]; u > maxUse {
						maxUse = u
					}
				}
				extra[l] = maxUse
			}
			g, edgeLinks, err := graphForSlotWindow(ledger, f.Release, f.Release+f.Deadline, extra)
			if err != nil {
				return nil, err
			}
			path, _, ok := g.ShortestPath(int(f.Src), int(f.Dst), 1e-6)
			if !ok {
				unrouted = append(unrouted, f.ID)
				break
			}
			bottleneck := remaining
			for _, id := range path {
				if c := g.EdgeInfo(id).Cap; c < bottleneck {
					bottleneck = c
				}
			}
			if bottleneck <= 1e-9 {
				unrouted = append(unrouted, f.ID)
				break
			}
			for _, id := range path {
				l := edgeLinks[id]
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
