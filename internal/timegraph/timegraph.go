// Package timegraph constructs the time-expanded graph at the heart of
// Postcard (Sec. V): one virtual copy of every datacenter per time layer,
// a copy of every overlay link between consecutive layers, and a zero-cost
// infinite-capacity storage self-loop per datacenter modeling
// store-and-forward. Deadline constraints become structural: a file's
// variables exist only inside its subgraph of layers.
package timegraph

import (
	"fmt"
	"io"

	"github.com/interdc/postcard/internal/netmodel"
)

// Edge is one edge of the time-expanded graph, connecting node (From,Slot)
// to node (To,Slot+1). Storage edges have From == To, infinite capacity and
// zero price.
type Edge struct {
	Index   int
	From    netmodel.DC
	To      netmodel.DC
	Slot    int
	Storage bool
	Price   float64
	BaseCap float64 // base link capacity in GB/slot; +Inf for storage
}

// Graph is a time-expanded graph over layers [Start, Start+Horizon]. There
// are Horizon "slots" of edges: slot s connects layer s to layer s+1.
type Graph struct {
	nw      *netmodel.Network
	start   int
	horizon int
	edges   []Edge
	// lookup[(slot-start)*n*n + i*n + j] -> edge index + 1 (0 = absent)
	lookup []int
}

// Build constructs the time-expanded graph of nw over horizon slots
// beginning at slot start.
func Build(nw *netmodel.Network, start, horizon int) (*Graph, error) {
	if start < 0 {
		return nil, fmt.Errorf("timegraph: negative start slot %d", start)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("timegraph: horizon %d < 1", horizon)
	}
	n := nw.NumDCs()
	g := &Graph{
		nw:      nw,
		start:   start,
		horizon: horizon,
		lookup:  make([]int, horizon*n*n),
	}
	for s := start; s < start+horizon; s++ {
		nw.Links(func(l netmodel.Link, price, capacity float64) {
			g.addEdge(Edge{
				From: l.From, To: l.To, Slot: s,
				Price: price, BaseCap: capacity,
			})
		})
		for i := 0; i < n; i++ {
			g.addEdge(Edge{
				From: netmodel.DC(i), To: netmodel.DC(i), Slot: s,
				Storage: true, BaseCap: inf(),
			})
		}
	}
	return g, nil
}

func inf() float64 { return 1e308 }

func (g *Graph) addEdge(e Edge) {
	e.Index = len(g.edges)
	g.edges = append(g.edges, e)
	g.lookup[g.lookupIdx(e.From, e.To, e.Slot)] = e.Index + 1
}

func (g *Graph) lookupIdx(i, j netmodel.DC, slot int) int {
	n := g.nw.NumDCs()
	return (slot-g.start)*n*n + int(i)*n + int(j)
}

// Rebase shifts the graph so its first layer becomes newStart, reusing the
// already-allocated edge and lookup storage instead of rebuilding. The graph
// keeps its horizon; only every edge's Slot moves by the same delta. Because
// prices and base capacities are static properties of the overlay, a rebased
// graph is indistinguishable from one freshly built at newStart — this is
// what lets the incremental per-slot solver keep one time-expanded skeleton
// alive across consecutive slots.
func (g *Graph) Rebase(newStart int) error {
	if newStart < 0 {
		return fmt.Errorf("timegraph: negative start slot %d", newStart)
	}
	delta := newStart - g.start
	if delta == 0 {
		return nil
	}
	for i := range g.edges {
		g.edges[i].Slot += delta
	}
	g.start = newStart
	return nil
}

// Network returns the underlying overlay network.
func (g *Graph) Network() *netmodel.Network { return g.nw }

// Start reports the first layer (slot index) of the graph.
func (g *Graph) Start() int { return g.start }

// Horizon reports the number of edge slots.
func (g *Graph) Horizon() int { return g.horizon }

// NumEdges reports the number of edges (transfer + storage) in the graph.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given index.
func (g *Graph) Edge(idx int) Edge { return g.edges[idx] }

// Edges invokes fn for every edge in index order.
func (g *Graph) Edges(fn func(e Edge)) {
	for _, e := range g.edges {
		fn(e)
	}
}

// EdgeAt returns the edge (i -> j at slot), if it exists. Storage edges are
// addressed with i == j.
func (g *Graph) EdgeAt(i, j netmodel.DC, slot int) (Edge, bool) {
	if slot < g.start || slot >= g.start+g.horizon {
		return Edge{}, false
	}
	n := g.nw.NumDCs()
	if int(i) < 0 || int(i) >= n || int(j) < 0 || int(j) >= n {
		return Edge{}, false
	}
	id := g.lookup[g.lookupIdx(i, j, slot)]
	if id == 0 {
		return Edge{}, false
	}
	return g.edges[id-1], true
}

// FileWindow reports the slot range [first, last] during which file f may
// occupy edges, clamped to the graph. ok is false when the file cannot fit
// in this graph at all (released outside the horizon).
func (g *Graph) FileWindow(f netmodel.File) (first, last int, ok bool) {
	first = f.Release
	last = f.Release + f.Deadline - 1
	if hi := g.start + g.horizon - 1; last > hi {
		last = hi
	}
	if first < g.start {
		first = g.start
	}
	if first > last {
		return 0, 0, false
	}
	return first, last, true
}

// WindowEdges invokes fn for every edge of file f's window (the slots
// FileWindow reports), in index order. It reports false, calling fn never,
// when the window is empty.
func (g *Graph) WindowEdges(f netmodel.File, fn func(e Edge)) bool {
	first, last, ok := g.FileWindow(f)
	if !ok {
		return false
	}
	for s := first; s <= last; s++ {
		for _, e := range g.SlotEdges(s) {
			fn(e)
		}
	}
	return true
}

// Reachability holds per-datacenter hop distances used to prune a file's
// subgraph: FromSrc[i] is the minimum number of link hops from the file's
// source to datacenter i, ToDst[i] the minimum from i to the destination.
// Unreachable datacenters hold netmodel.Unreachable, larger than any layer
// count.
type Reachability struct {
	FromSrc []int
	ToDst   []int
}

// FileReachability computes hop distances for file f on the overlay.
func (g *Graph) FileReachability(f netmodel.File) Reachability {
	from, _ := g.nw.Hops(f.Src, false)
	to, _ := g.nw.Hops(f.Dst, true)
	return Reachability{FromSrc: from, ToDst: to}
}

// Permissive returns a Reachability over n datacenters that prunes
// nothing: every hop distance is zero, so Allowed degenerates to the pure
// deadline-window check. Equivalence gates and fuzzers use it to build the
// unpruned model that reachability pruning must match exactly.
func Permissive(n int) Reachability {
	return Reachability{
		FromSrc: make([]int, n),
		ToDst:   make([]int, n),
	}
}

// Allowed reports whether file f may occupy datacenter dc at layer
// (i.e. hold data there at the beginning of slot layer): the datacenter
// must be reachable from the source within the elapsed slots and the
// destination must remain reachable within the remaining slots.
func (r Reachability) Allowed(f netmodel.File, dc netmodel.DC, layer int) bool {
	elapsed := layer - f.Release
	remaining := f.Release + f.Deadline - layer
	if elapsed < 0 || remaining < 0 {
		return false
	}
	return r.FromSrc[dc] <= elapsed && r.ToDst[dc] <= remaining
}

// EdgeAllowed reports whether file f may use edge e: its tail must be
// Allowed at the edge's slot and its head at the next layer.
func (r Reachability) EdgeAllowed(f netmodel.File, e Edge) bool {
	return r.Allowed(f, e.From, e.Slot) && r.Allowed(f, e.To, e.Slot+1)
}

// DOT writes the time-expanded graph in Graphviz format, one rank per
// layer. Storage edges are drawn dashed.
func (g *Graph) DOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph timeexpanded {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  rankdir=LR;"); err != nil {
		return err
	}
	n := g.nw.NumDCs()
	for layer := g.start; layer <= g.start+g.horizon; layer++ {
		if _, err := fmt.Fprintf(w, "  { rank=same; "); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := fmt.Fprintf(w, "\"d%d@%d\"; ", i, layer); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, "}"); err != nil {
			return err
		}
	}
	var dotErr error
	g.Edges(func(e Edge) {
		if dotErr != nil {
			return
		}
		style := ""
		if e.Storage {
			style = " [style=dashed]"
		} else {
			style = fmt.Sprintf(" [label=\"a=%g\"]", e.Price)
		}
		_, dotErr = fmt.Fprintf(w, "  \"d%d@%d\" -> \"d%d@%d\"%s;\n",
			int(e.From), e.Slot, int(e.To), e.Slot+1, style)
	})
	if dotErr != nil {
		return dotErr
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
