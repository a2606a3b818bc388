// Package graph provides the directed-graph algorithms used by the
// combinatorial flow-based baselines: shortest paths (Dijkstra and
// Bellman-Ford), Dinic max-flow, and successive-shortest-path min-cost
// flow. Graphs are small (tens of datacenters), so the implementations
// favor clarity and exact invariants over micro-optimization.
package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Edge is a directed edge with capacity and per-unit cost. Residual state
// lives in Flow; the residual capacity is Cap - Flow for forward edges and
// Flow of the paired edge for backward traversal.
type Edge struct {
	From, To int
	Cap      float64
	Cost     float64
	Flow     float64
}

// Graph is a directed multigraph supporting flow algorithms. Edges are
// stored in pairs: edge 2k is the forward edge, edge 2k+1 its residual
// reverse (capacity 0, negated cost).
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // node -> indices into edges
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports the number of forward edges added with AddEdge.
func (g *Graph) NumEdges() int { return len(g.edges) / 2 }

// AddEdge adds a directed edge and returns its identifier. It returns an
// error for out-of-range endpoints or negative capacity.
func (g *Graph) AddEdge(from, to int, capacity, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", from, to, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("graph: negative capacity %v on edge (%d,%d)", capacity, from, to)
	}
	id := len(g.edges)
	g.edges = append(g.edges,
		Edge{From: from, To: to, Cap: capacity, Cost: cost},
		Edge{From: to, To: from, Cap: 0, Cost: -cost},
	)
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
	return id / 2, nil
}

// EdgeFlow reports the flow currently assigned to forward edge id.
func (g *Graph) EdgeFlow(id int) float64 { return g.edges[2*id].Flow }

// EdgeInfo returns a copy of forward edge id.
func (g *Graph) EdgeInfo(id int) Edge { return g.edges[2*id] }

// residual reports the residual capacity of internal edge index e.
func (g *Graph) residual(e int) float64 {
	if e%2 == 0 {
		return g.edges[e].Cap - g.edges[e].Flow
	}
	return g.edges[e-1].Flow
}

// push sends f units along internal edge index e.
func (g *Graph) push(e int, f float64) {
	if e%2 == 0 {
		g.edges[e].Flow += f
	} else {
		g.edges[e-1].Flow -= f
	}
}

const flowEps = 1e-9

// MaxFlow computes a maximum s-t flow with Dinic's algorithm, leaving the
// flow assignment on the edges, and returns its value.
func (g *Graph) MaxFlow(s, t int) (float64, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, fmt.Errorf("graph: endpoints (%d,%d) out of range", s, t)
	}
	if s == t {
		return 0, fmt.Errorf("graph: max-flow source equals sink %d", s)
	}
	total := 0.0
	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for {
		// BFS levels on the residual graph.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.adj[v] {
				if g.residual(e) > flowEps && level[g.edges[e].To] < 0 {
					level[g.edges[e].To] = level[v] + 1
					queue = append(queue, g.edges[e].To)
				}
			}
		}
		if level[t] < 0 {
			return total, nil
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfsAugment(s, t, math.Inf(1), level, iter)
			if f <= flowEps {
				break
			}
			total += f
		}
	}
}

// dfsAugment finds one blocking-flow augmenting path in the level graph.
func (g *Graph) dfsAugment(v, t int, limit float64, level, iter []int) float64 {
	if v == t {
		return limit
	}
	for ; iter[v] < len(g.adj[v]); iter[v]++ {
		e := g.adj[v][iter[v]]
		to := g.edges[e].To
		if g.residual(e) <= flowEps || level[to] != level[v]+1 {
			continue
		}
		f := g.dfsAugment(to, t, math.Min(limit, g.residual(e)), level, iter)
		if f > flowEps {
			g.push(e, f)
			return f
		}
	}
	return 0
}

// MinCostFlow sends up to want units from s to t at minimum total cost
// using successive shortest paths with Johnson potentials. Negative edge
// costs are supported as long as the initial residual graph has no negative
// cycle (an error is returned otherwise). It returns the amount actually
// sent (which is min(want, maxflow)) and its cost, leaving the flow
// assignment on the edges.
func (g *Graph) MinCostFlow(s, t int, want float64) (sent, cost float64, err error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, 0, fmt.Errorf("graph: endpoints (%d,%d) out of range", s, t)
	}
	if s == t {
		return 0, 0, fmt.Errorf("graph: min-cost-flow source equals sink %d", s)
	}
	if want < 0 {
		return 0, 0, fmt.Errorf("graph: negative demand %v", want)
	}
	// Initial potentials via Bellman-Ford to support negative costs.
	pot, negCycle := g.bellmanFord(s)
	if negCycle {
		return 0, 0, fmt.Errorf("graph: negative cycle in residual graph")
	}
	dist := make([]float64, g.n)
	prevEdge := make([]int, g.n)
	for sent < want-flowEps {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[s] = 0
		pq := &priorityQueue{}
		heap.Push(pq, pqItem{node: s, dist: 0})
		for pq.Len() > 0 {
			item := heap.Pop(pq).(pqItem)
			v := item.node
			if item.dist > dist[v]+flowEps {
				continue
			}
			for _, e := range g.adj[v] {
				if g.residual(e) <= flowEps {
					continue
				}
				to := g.edges[e].To
				rc := g.edges[e].Cost + pot[v] - pot[to]
				if rc < 0 && rc > -1e-7 {
					rc = 0 // numerical guard: reduced costs are >= 0 in exact arithmetic
				}
				if nd := dist[v] + rc; nd < dist[to]-flowEps {
					dist[to] = nd
					prevEdge[to] = e
					heap.Push(pq, pqItem{node: to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break // no more augmenting capacity
		}
		for i := range pot {
			if !math.IsInf(dist[i], 1) {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		f := want - sent
		for v := t; v != s; {
			e := prevEdge[v]
			if r := g.residual(e); r < f {
				f = r
			}
			v = g.edges[e].From
		}
		for v := t; v != s; {
			e := prevEdge[v]
			g.push(e, f)
			cost += f * g.edges[e].Cost // reverse edges carry negated cost
			v = g.edges[e].From
		}
		sent += f
	}
	return sent, cost, nil
}

// bellmanFord computes shortest distances from s over residual edges,
// reporting whether a negative cycle is reachable. Unreachable nodes get
// potential 0 (safe: their reduced costs are checked lazily).
func (g *Graph) bellmanFord(s int) ([]float64, bool) {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for e := range g.edges {
			if g.residual(e) <= flowEps {
				continue
			}
			from, to := g.edges[e].From, g.edges[e].To
			if math.IsInf(dist[from], 1) {
				continue
			}
			if nd := dist[from] + g.edges[e].Cost; nd < dist[to]-1e-12 {
				dist[to] = nd
				changed = true
				if iter == g.n-1 {
					return nil, true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range dist {
		if math.IsInf(dist[i], 1) {
			dist[i] = 0
		}
	}
	return dist, false
}

// ShortestPath returns the minimum-cost path from s to t over edges with
// residual capacity at least minResidual, as a list of forward-edge IDs,
// along with its cost. It returns ok=false when t is unreachable. Costs
// must be nonnegative (Dijkstra).
func (g *Graph) ShortestPath(s, t int, minResidual float64) (path []int, cost float64, ok bool) {
	dist := make([]float64, g.n)
	prevEdge := make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[s] = 0
	pq := &priorityQueue{}
	heap.Push(pq, pqItem{node: s, dist: 0})
	for pq.Len() > 0 {
		item := heap.Pop(pq).(pqItem)
		v := item.node
		if item.dist > dist[v]+flowEps {
			continue
		}
		for _, e := range g.adj[v] {
			if e%2 == 1 { // forward edges only: this is a path search, not residual
				continue
			}
			if g.residual(e) < minResidual-flowEps {
				continue
			}
			to := g.edges[e].To
			if nd := dist[v] + g.edges[e].Cost; nd < dist[to]-flowEps {
				dist[to] = nd
				prevEdge[to] = e
				heap.Push(pq, pqItem{node: to, dist: nd})
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return nil, 0, false
	}
	for v := t; v != s; {
		e := prevEdge[v]
		path = append(path, e/2)
		v = g.edges[e].From
	}
	// Reverse into s->t order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[t], true
}

// FlowConservationError checks that the current flow conserves at every
// node except s and t and returns a descriptive error on violation. The
// net outflow of s must equal value within tol.
func (g *Graph) FlowConservationError(s, t int, value, tol float64) error {
	net := make([]float64, g.n)
	for i := 0; i < len(g.edges); i += 2 {
		e := g.edges[i]
		if e.Flow < -tol {
			return fmt.Errorf("graph: negative flow %v on edge (%d,%d)", e.Flow, e.From, e.To)
		}
		if e.Flow > e.Cap+tol {
			return fmt.Errorf("graph: flow %v exceeds capacity %v on edge (%d,%d)", e.Flow, e.Cap, e.From, e.To)
		}
		net[e.From] += e.Flow
		net[e.To] -= e.Flow
	}
	for v := 0; v < g.n; v++ {
		want := 0.0
		switch v {
		case s:
			want = value
		case t:
			want = -value
		}
		if math.Abs(net[v]-want) > tol {
			return fmt.Errorf("graph: conservation violated at node %d: net %v, want %v", v, net[v], want)
		}
	}
	return nil
}

type pqItem struct {
	node int
	dist float64
}

type priorityQueue []pqItem

func (p priorityQueue) Len() int           { return len(p) }
func (p priorityQueue) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p priorityQueue) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *priorityQueue) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *priorityQueue) Pop() any {
	old := *p
	n := len(old)
	item := old[n-1]
	*p = old[:n-1]
	return item
}
