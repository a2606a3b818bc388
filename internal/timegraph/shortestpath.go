package timegraph

import (
	"math"

	"github.com/interdc/postcard/internal/netmodel"
)

// SlotEdges returns the edges of slot s — every transfer edge followed by
// the per-datacenter storage edges, in index order — or nil when s lies
// outside the graph. Build lays edges out slot-contiguously and Rebase
// preserves the layout, so the returned slice is a view into the graph's
// own storage.
func (g *Graph) SlotEdges(s int) []Edge {
	if s < g.start || s >= g.start+g.horizon {
		return nil
	}
	per := len(g.edges) / g.horizon
	off := (s - g.start) * per
	return g.edges[off : off+per]
}

// StoragePolicy controls which datacenters may hold data between slots —
// the store-and-forward capability the paper studies. The zero value is
// StorageEverywhere.
type StoragePolicy int

// Storage policies.
const (
	// StorageEverywhere allows holdovers at every datacenter (the paper's
	// Postcard model).
	StorageEverywhere StoragePolicy = iota
	// StorageEndpointsOnly allows holdovers only at a file's own source and
	// destination, disabling intermediate store-and-forward. Used by the
	// ablation benchmarks to isolate the value of relay storage.
	StorageEndpointsOnly
	// StorageNone forbids holdovers entirely: data must traverse a link
	// every slot it is in flight.
	StorageNone
)

// Permits reports whether the policy lets file f use edge e. Transfer edges
// are always permitted; the policy decides only holdovers.
func (p StoragePolicy) Permits(f netmodel.File, e *Edge) bool {
	if !e.Storage {
		return true
	}
	switch p {
	case StorageEndpointsOnly:
		return e.From == f.Src || e.From == f.Dst
	case StorageNone:
		return false
	}
	return true
}

// Weights prices the transfer edges of a shortest-path sweep through one
// level of indirection: transfer edge i weighs Val[Ref[i]], and +Inf
// forbids it. Edges that always weigh the same share an entry, so a caller
// whose weights move per link rather than per edge rewrites only len(Val)
// values between sweeps. Ref is indexed by edge index over the whole graph;
// its storage-edge entries are never read.
type Weights struct {
	Ref []int32
	Val []float64
}

// PathFinder computes minimum-weight source→deadline paths on the
// time-expanded DAG — the Dantzig–Wolfe pricing subproblem. The graph is
// layered (every edge goes from layer s to layer s+1), so one
// label-correcting sweep in layer order is exact for arbitrary edge
// weights, including the negative reduced costs pricing produces; no
// Dijkstra ordering or negative-cycle handling is needed. The zero value is
// ready to use, and the internal labels are recycled across calls, so one
// PathFinder per worker goroutine prices any number of files without
// allocating.
type PathFinder struct {
	dist []float64
	pred []int32
	path []int
}

// ShortestPath returns a minimum-weight path for file f from its source at
// the release layer to its destination at the deadline layer (clamped to
// the graph), as a sequence of edge indices in traversal order. Transfer
// edges weigh what w assigns them; storage edges weigh zero where hold
// permits them and are excluded elsewhere. Deadline-window pruning is
// inherent: a layered path from (src, release) to (dst, deadline) can only
// visit datacenters whose hop distances fit the elapsed and remaining
// slots, exactly the Reachability.Allowed condition.
//
// The sweep touches only the edges that can lie on such a path: in the
// window's first slot the source's out-edges, in its last slot the edges
// into the destination, and every edge of the slots in between.
//
// ok is false when no admissible path exists. The returned slice is reused
// by the next call on the same PathFinder; callers that keep paths copy
// them out. Ties between equal-weight paths break toward the lowest edge
// index at every layer, so the result is deterministic for given weights.
func (p *PathFinder) ShortestPath(g *Graph, f netmodel.File, hold StoragePolicy, w Weights) (path []int, weight float64, ok bool) {
	n := g.nw.NumDCs()
	first := max(f.Release, g.start)
	endLayer := min(f.Release+f.Deadline, g.start+g.horizon)
	if first > endLayer {
		return nil, 0, false
	}
	layers := endLayer - first + 1
	size := layers * n
	if cap(p.dist) < size {
		p.dist = make([]float64, size)
		p.pred = make([]int32, size)
	} else {
		p.dist = p.dist[:size]
		p.pred = p.pred[:size]
	}
	pinf := math.Inf(1)
	for i := range p.dist {
		p.dist[i] = pinf
		p.pred[i] = 0
	}
	src, dst := int(f.Src), int(f.Dst)
	p.dist[src] = 0
	goal := (layers-1)*n + dst
	for layer := first; layer < endLayer; layer++ {
		base := (layer - first) * n
		switch {
		case layer == endLayer-1:
			p.relaxInto(g, f, hold, w, layer, base, goal)
		case layer == first:
			p.relaxFrom(g, f, hold, w, layer, base)
		default:
			p.relaxSlot(g, f, hold, w, layer, base)
		}
	}
	if p.dist[goal] == pinf {
		return nil, 0, false
	}
	p.path = p.path[:0]
	for node := goal; ; {
		pe := p.pred[node]
		if pe == 0 {
			break
		}
		e := &g.edges[pe-1]
		p.path = append(p.path, e.Index)
		node = (e.Slot-first)*n + int(e.From)
	}
	// The walk above runs destination→source; traversal order is the reverse.
	for i, j := 0, len(p.path)-1; i < j; i, j = i+1, j-1 {
		p.path[i], p.path[j] = p.path[j], p.path[i]
	}
	return p.path, p.dist[goal], true
}

// weightOf is edge e's weight in a sweep for file f: +Inf marks an edge
// the sweep must not take.
func weightOf(f netmodel.File, hold StoragePolicy, w Weights, e *Edge) float64 {
	if !e.Storage {
		return w.Val[w.Ref[e.Index]]
	}
	if hold.Permits(f, e) {
		return 0
	}
	return math.Inf(1)
}

// relaxSlot relaxes every edge of slot layer, whose tail labels start at
// dist[base].
func (p *PathFinder) relaxSlot(g *Graph, f netmodel.File, hold StoragePolicy, w Weights, layer, base int) {
	n := g.nw.NumDCs()
	next := base + n
	slot := g.SlotEdges(layer)
	transfers := slot[:len(slot)-n]
	off := (layer - g.start) * len(slot)
	ref := w.Ref[off : off+len(transfers)]
	pinf := math.Inf(1)
	for i := range transfers {
		e := &transfers[i]
		from := p.dist[base+int(e.From)]
		if from == pinf {
			continue
		}
		// A +Inf weight leaves d at +Inf (or NaN), which never relaxes.
		if d := from + w.Val[ref[i]]; d < p.dist[next+int(e.To)] {
			p.dist[next+int(e.To)] = d
			p.pred[next+int(e.To)] = int32(e.Index) + 1
		}
	}
	for i := len(transfers); i < len(slot); i++ {
		e := &slot[i]
		from := p.dist[base+int(e.From)]
		if from == pinf || !hold.Permits(f, e) {
			continue
		}
		// A hold weighs zero. Labels are never −0 (they start at +0, and a
		// sum is −0 only when both addends are), so from + 0 is from.
		if from < p.dist[next+int(e.To)] {
			p.dist[next+int(e.To)] = from
			p.pred[next+int(e.To)] = int32(e.Index) + 1
		}
	}
}

// relaxFrom relaxes slot layer when the source is its only labelled tail:
// the source's out-edges, one per head, found through the lookup table.
func (p *PathFinder) relaxFrom(g *Graph, f netmodel.File, hold StoragePolicy, w Weights, layer, base int) {
	n := g.nw.NumDCs()
	next := base + n
	from := p.dist[base+int(f.Src)]
	row := g.lookup[g.lookupIdx(f.Src, 0, layer):][:n]
	for _, id := range row {
		if id == 0 {
			continue
		}
		e := &g.edges[id-1]
		if d := from + weightOf(f, hold, w, e); d < p.dist[next+int(e.To)] {
			p.dist[next+int(e.To)] = d
			p.pred[next+int(e.To)] = int32(e.Index) + 1
		}
	}
}

// relaxInto relaxes the last slot of the window, layer, for the goal label
// only: the edges into the destination, found through the lookup table.
// They arrive in tail order, not index order, so equal distances break
// explicitly toward the lowest edge index, as an index-order sweep would.
func (p *PathFinder) relaxInto(g *Graph, f netmodel.File, hold StoragePolicy, w Weights, layer, base, goal int) {
	n := g.nw.NumDCs()
	pinf := math.Inf(1)
	best, bestID := pinf, int32(0)
	for i := 0; i < n; i++ {
		id := g.lookup[g.lookupIdx(netmodel.DC(i), f.Dst, layer)]
		if id == 0 {
			continue
		}
		from := p.dist[base+i]
		if from == pinf {
			continue
		}
		e := &g.edges[id-1]
		d := from + weightOf(f, hold, w, e)
		if d < best || (d == best && int32(id) < bestID) {
			best, bestID = d, int32(id)
		}
	}
	if bestID != 0 {
		p.dist[goal], p.pred[goal] = best, bestID
	}
}
