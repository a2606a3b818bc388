// Package admission implements the allocate-on-arrival fast tier of the
// two-tier scheduler (DCRoute-style, see PAPERS.md): each incoming file is
// answered admit/reject in O(links x horizon) with a provisional
// single-path store-and-forward schedule that fills paid headroom first,
// while a background re-optimizer wraps the incremental core.Solver and
// republishes the LP-optimal plan for the admitted batch between slots,
// releasing the fast tier's over-reservations. No LP runs on the hot path.
//
// A Controller is single-threaded: its caller serializes every method behind
// one lock. Republish is three steps — BeginRepublish, RepublishJob.Solve,
// FinishRepublish — and only the middle one may run outside that lock: a
// RepublishJob may be solved without the controller's lock only while the
// ledger and the network's prices are not written (and one job at a time).
// A job whose batch changed before its finish is stale and never swaps.
package admission

import (
	"container/heap"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// Plan is the fast tier's provisional placement for one admitted file: a
// single source->destination path and a slot-by-slot store-and-forward
// schedule along it (complete with holdover actions, so the independent
// schedule verifier accepts it stand-alone).
type Plan struct {
	File netmodel.File
	// Path is the chosen simple path from File.Src to File.Dst.
	Path []netmodel.DC
	// Schedule routes the whole file along Path within its deadline.
	Schedule *schedule.Schedule
	// ChargeDelta is the increase in ledger cost per slot that committing
	// this plan on top of the current reservations would cause (always 0
	// under q < 100 charging, where the fast tier only fills headroom).
	ChargeDelta float64
	// Expansions counts partial paths the best-first search popped.
	Expansions int
	// Exhaustive reports whether the search covered the entire simple-path
	// space up to the hop bound (as opposed to stopping at maxExpansions).
	Exhaustive bool
}

// ftol is the relative delivery tolerance of the greedy path evaluator:
// a path counts as feasible when it delivers at least Size - ftol*(1+Size).
// It is kept two orders of magnitude below the schedule verifier's default
// so marginal shortfalls stay invisible downstream.
const ftol = 1e-9

// deliveryTol returns the absolute delivery tolerance for a file size.
func deliveryTol(size float64) float64 { return ftol * (1 + size) }

// usableAt reports the per-slot capacity the fast tier may allocate on a
// link: under 100th-percentile charging the full unreserved residual (any
// excess over the charged peak is costed by ChargeDelta), under q < 100
// only the free headroom, so admitted plans can never raise the charge.
func usableAt(res *netmodel.Reservations, i, j netmodel.DC, slot int, q100 bool) float64 {
	if q100 {
		return res.Available(i, j, slot)
	}
	return res.FreeHeadroom(i, j, slot)
}

// linkEst summarizes one link over a file's window for the path search.
type linkEst struct {
	feasible bool    // window capacity can carry the whole file
	cost     float64 // estimated marginal charge of routing the file across
}

// estimateLink computes the search estimate for routing f across link i->j:
// infeasible when the window's usable capacity cannot carry the file at all
// (a single-path placement must push the full size across every hop), and
// otherwise the price times the volume that will not fit under free
// headroom — an order-of-magnitude cost proxy, not an exact charge.
func estimateLink(res *netmodel.Reservations, i, j netmodel.DC, f netmodel.File, q100 bool) linkEst {
	deadlineLayer := f.Release + f.Deadline
	total, free := 0.0, 0.0
	for s := f.Release; s < deadlineLayer; s++ {
		u := usableAt(res, i, j, s, q100)
		total += u
		h := res.FreeHeadroom(i, j, s)
		if h > u {
			h = u
		}
		free += h
	}
	if total < f.Size-deliveryTol(f.Size) {
		return linkEst{}
	}
	over := f.Size - free
	if over < 0 {
		over = 0
	}
	return linkEst{feasible: true, cost: res.Ledger().Network().Price(i, j) * over}
}

// searchNode is a partial path in the best-first search frontier.
type searchNode struct {
	cost float64
	path []netmodel.DC
}

// nodeLess orders the frontier by (estimated cost, hops, lexicographic
// path), making the search — and therefore every admission decision —
// fully deterministic.
func nodeLess(a, b *searchNode) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if len(a.path) != len(b.path) {
		return len(a.path) < len(b.path)
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return a.path[i] < b.path[i]
		}
	}
	return false
}

type searchHeap []*searchNode

func (h searchHeap) Len() int           { return len(h) }
func (h searchHeap) Less(i, j int) bool { return nodeLess(h[i], h[j]) }
func (h searchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *searchHeap) Push(x any)        { *h = append(*h, x.(*searchNode)) }
func (h *searchHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// planFile searches for the cheapest feasible single-path placement of f
// under the current reservations. It returns (plan, expansions, exhaustive):
// plan is nil when no candidate path within the search budget can carry the
// file; exhaustive reports whether the rejection covered the entire
// simple-path space up to the hop bound.
func planFile(res *netmodel.Reservations, f netmodel.File, q100 bool) (*Plan, int, bool) {
	nw := res.Ledger().Network()
	n := nw.NumDCs()
	maxHops := f.Deadline
	if n-1 < maxHops {
		maxHops = n - 1
	}
	// Hop distances to the destination prune prefixes that cannot reach it
	// within the hop budget.
	dist, _ := nw.Hops(f.Dst, true)
	if dist[f.Src] > maxHops {
		return nil, 0, true
	}

	// Link estimates are memoized per directed link: the window is fixed,
	// so each link is summarized at most once per admission.
	ests := make(map[int]linkEst, n)
	estOf := func(i, j netmodel.DC) linkEst {
		k := int(i)*n + int(j)
		e, ok := ests[k]
		if !ok {
			e = estimateLink(res, i, j, f, q100)
			ests[k] = e
		}
		return e
	}

	frontier := &searchHeap{{path: []netmodel.DC{f.Src}}}
	expansions := 0
	for frontier.Len() > 0 {
		if expansions >= maxExpansions {
			return nil, expansions, false
		}
		node := heap.Pop(frontier).(*searchNode)
		expansions++
		last := node.path[len(node.path)-1]
		if last == f.Dst {
			sends, ok := simulatePath(res, f, node.path, q100)
			if !ok {
				continue
			}
			trimSends(sends, f.Size)
			plan := emitPlan(f, node.path, sends)
			plan.ChargeDelta = chargeDelta(res, f, node.path, sends)
			plan.Expansions = expansions
			return plan, expansions, true
		}
		hops := len(node.path) - 1
		inPath := func(d netmodel.DC) bool {
			for _, p := range node.path {
				if p == d {
					return true
				}
			}
			return false
		}
		for v := 0; v < n; v++ {
			next := netmodel.DC(v)
			if inPath(next) || !nw.HasLink(last, next) {
				continue
			}
			if hops+1+dist[v] > maxHops {
				continue
			}
			e := estOf(last, next)
			if !e.feasible {
				continue
			}
			path := make([]netmodel.DC, len(node.path)+1)
			copy(path, node.path)
			path[len(node.path)] = next
			heap.Push(frontier, &searchNode{cost: node.cost + e.cost, path: path})
		}
	}
	return nil, expansions, true
}

// simulatePath runs the exact greedy forward simulation of f along path:
// every hop forwards as much of its stock as the slot's usable capacity
// allows, downstream hops first so data moves at most one hop per slot.
// With free, uncapacitated storage this greedy is a maximum flow by the
// deadline on the fixed path, so it is an exact feasibility test. It
// returns the per-hop per-slot send profile (indexed [hop][slot-Release])
// and whether the path can deliver the whole file.
func simulatePath(res *netmodel.Reservations, f netmodel.File, path []netmodel.DC, q100 bool) ([][]float64, bool) {
	hops := len(path) - 1
	horizon := f.Deadline
	sends := make([][]float64, hops)
	for i := range sends {
		sends[i] = make([]float64, horizon)
	}
	stocks := make([]float64, hops+1)
	stocks[0] = f.Size
	for off := 0; off < horizon; off++ {
		slot := f.Release + off
		for i := hops - 1; i >= 0; i-- {
			amt := stocks[i]
			if u := usableAt(res, path[i], path[i+1], slot, q100); u < amt {
				amt = u
			}
			if amt <= 0 {
				continue
			}
			sends[i][off] = amt
			stocks[i] -= amt
			stocks[i+1] += amt
		}
	}
	return sends, stocks[hops] >= f.Size-deliveryTol(f.Size)
}

// trimSends prunes the greedy send profile down to exactly the file size
// per hop, dropping the latest surplus sends. Keeping the earliest sends
// preserves joint feasibility: the trimmed cumulative profile of hop i is
// min(greedy cumulative, size), and the greedy profiles already satisfy
// cum_i(s-1) >= cum_{i+1}(s), an inequality min(., size) preserves.
func trimSends(sends [][]float64, size float64) {
	for _, hop := range sends {
		cum := 0.0
		for s, amt := range hop {
			if cum+amt <= size {
				cum += amt
				continue
			}
			hop[s] = size - cum
			cum = size
		}
	}
}

// emitPlan replays the trimmed send profile into a verifier-complete
// schedule: transfer actions for every send plus holdover actions for every
// remaining stock, including the destination holding delivered data until
// the slot before the deadline layer (the verifier requires every live
// balance to move every slot, holds included).
func emitPlan(f netmodel.File, path []netmodel.DC, sends [][]float64) *Plan {
	hops := len(path) - 1
	s := &schedule.Schedule{}
	stocks := make([]float64, hops+1)
	stocks[0] = f.Size
	pre := make([]float64, hops+1)
	for off := 0; off < f.Deadline; off++ {
		slot := f.Release + off
		copy(pre, stocks)
		for i := hops - 1; i >= 0; i-- {
			amt := sends[i][off]
			if amt > 0 {
				s.Add(schedule.Action{FileID: f.ID, From: path[i], To: path[i+1], Slot: slot, Amount: amt})
				stocks[i] -= amt
				stocks[i+1] += amt
			}
			if hold := pre[i] - amt; hold > 0 {
				s.Add(schedule.Action{FileID: f.ID, From: path[i], To: path[i], Slot: slot, Amount: hold})
			}
		}
		if pre[hops] > 0 {
			s.Add(schedule.Action{FileID: f.ID, From: path[hops], To: path[hops], Slot: slot, Amount: pre[hops]})
		}
	}
	return &Plan{File: f, Path: path, Schedule: s}
}

// chargeDelta computes the exact increase in ledger cost per slot that
// committing the send profile on top of the current reservations causes
// under 100th-percentile charging: per link, price times the growth of the
// planned peak (ledger volume + reservations + sends) over the paid-for
// peak. Peaks are taken over the union of the charging period, the file
// window and the reservation extent, so per-file deltas telescope exactly
// across a batch. Under q < 100 the fast tier only fills headroom and the
// delta is zero by construction.
func chargeDelta(res *netmodel.Reservations, f netmodel.File, path []netmodel.DC, sends [][]float64) float64 {
	l := res.Ledger()
	if l.Scheme().Q < 100 {
		return 0
	}
	span := l.EffectivePeriodSlots()
	if e := res.Extent(); e > span {
		span = e
	}
	if dl := f.Release + f.Deadline; dl > span {
		span = dl
	}
	delta := 0.0
	for i := 0; i+1 < len(path); i++ {
		from, to := path[i], path[i+1]
		before, after := l.ChargedVolume(from, to), 0.0
		for s := 0; s < span; s++ {
			planned := res.PlannedVolume(from, to, s)
			if planned > before {
				before = planned
			}
			off := s - f.Release
			if off >= 0 && off < f.Deadline {
				planned += sends[i][off]
			}
			if planned > after {
				after = planned
			}
		}
		if after > before {
			delta += l.Network().Price(from, to) * (after - before)
		}
	}
	return delta
}
