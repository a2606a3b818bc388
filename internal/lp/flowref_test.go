package lp_test

// The combinatorial reference of the LP's tests: a directed multigraph with
// Dinic max-flow, successive-shortest-path min-cost flow (Bellman–Ford
// potentials, then Dijkstra on reduced costs) and a flow-conservation check.
// Graphs are small, so the code favors clarity and exact invariants over
// speed. The LP cross-checks in flowref_lp_test.go solve the same instances
// as linear programs and compare.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// flowEdge is a directed edge with capacity and per-unit cost. Residual state
// lives in Flow; the residual capacity is Cap - Flow for forward edges and
// Flow of the paired edge for backward traversal.
type flowEdge struct {
	From, To int
	Cap      float64
	Cost     float64
	Flow     float64
}

// flowGraph is a directed multigraph supporting flow algorithms. Edges are
// stored in pairs: edge 2k is the forward edge, edge 2k+1 its residual
// reverse (capacity 0, negated cost).
type flowGraph struct {
	n     int
	edges []flowEdge
	adj   [][]int // node -> indices into edges
}

// newFlowGraph creates a graph with n nodes and no edges.
func newFlowGraph(n int) *flowGraph {
	return &flowGraph{n: n, adj: make([][]int, n)}
}

// NumNodes reports the number of nodes.
func (g *flowGraph) NumNodes() int { return g.n }

// NumEdges reports the number of forward edges added with AddEdge.
func (g *flowGraph) NumEdges() int { return len(g.edges) / 2 }

// AddEdge adds a directed edge and returns its identifier. It returns an
// error for out-of-range endpoints or negative capacity.
func (g *flowGraph) AddEdge(from, to int, capacity, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", from, to, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("graph: negative capacity %v on edge (%d,%d)", capacity, from, to)
	}
	id := len(g.edges)
	g.edges = append(g.edges,
		flowEdge{From: from, To: to, Cap: capacity, Cost: cost},
		flowEdge{From: to, To: from, Cap: 0, Cost: -cost},
	)
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
	return id / 2, nil
}

// EdgeInfo returns a copy of forward edge id.
func (g *flowGraph) EdgeInfo(id int) flowEdge { return g.edges[2*id] }

// residual reports the residual capacity of internal edge index e.
func (g *flowGraph) residual(e int) float64 {
	if e%2 == 0 {
		return g.edges[e].Cap - g.edges[e].Flow
	}
	return g.edges[e-1].Flow
}

// push sends f units along internal edge index e.
func (g *flowGraph) push(e int, f float64) {
	if e%2 == 0 {
		g.edges[e].Flow += f
	} else {
		g.edges[e-1].Flow -= f
	}
}

const flowEps = 1e-9

// MaxFlow computes a maximum s-t flow with Dinic's algorithm, leaving the
// flow assignment on the edges, and returns its value.
func (g *flowGraph) MaxFlow(s, t int) (float64, error) {
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
func (g *flowGraph) dfsAugment(v, t int, limit float64, level, iter []int) float64 {
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
func (g *flowGraph) MinCostFlow(s, t int, want float64) (sent, cost float64, err error) {
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
func (g *flowGraph) bellmanFord(s int) ([]float64, bool) {
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

// FlowConservationError checks that the current flow conserves at every
// node except s and t and returns a descriptive error on violation. The
// net outflow of s must equal value within tol.
func (g *flowGraph) FlowConservationError(s, t int, value, tol float64) error {
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

func mustEdge(t *testing.T, g *flowGraph, from, to int, capacity, cost float64) int {
	t.Helper()
	id, err := g.AddEdge(from, to, capacity, cost)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", from, to, err)
	}
	return id
}

func TestMaxFlowSimple(t *testing.T) {
	// Classic diamond: s=0, t=3, max flow 15.
	g := newFlowGraph(4)
	mustEdge(t, g, 0, 1, 10, 0)
	mustEdge(t, g, 0, 2, 10, 0)
	mustEdge(t, g, 1, 3, 10, 0)
	mustEdge(t, g, 2, 3, 5, 0)
	f, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-15) > 1e-9 {
		t.Errorf("max flow = %v, want 15", f)
	}
	if err := g.FlowConservationError(0, 3, f, 1e-9); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestMaxFlowNeedsResidual(t *testing.T) {
	// The classic example where a naive greedy gets stuck without
	// residual (backward) edges: two crossing paths through a middle edge.
	g := newFlowGraph(4)
	mustEdge(t, g, 0, 1, 1, 0)
	mustEdge(t, g, 0, 2, 1, 0)
	mustEdge(t, g, 1, 2, 1, 0)
	mustEdge(t, g, 1, 3, 1, 0)
	mustEdge(t, g, 2, 3, 1, 0)
	f, err := g.MaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2) > 1e-9 {
		t.Errorf("max flow = %v, want 2", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := newFlowGraph(3)
	mustEdge(t, g, 0, 1, 5, 0)
	f, err := g.MaxFlow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("max flow = %v, want 0", f)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := newFlowGraph(3)
	if _, err := g.MaxFlow(0, 0); err == nil {
		t.Error("expected error for s == t")
	}
	if _, err := g.MaxFlow(-1, 2); err == nil {
		t.Error("expected error for out-of-range source")
	}
	if _, err := g.AddEdge(0, 1, -1, 0); err == nil {
		t.Error("expected error for negative capacity")
	}
	if _, err := g.AddEdge(0, 9, 1, 0); err == nil {
		t.Error("expected error for out-of-range endpoint")
	}
}

func TestMinCostFlowSimple(t *testing.T) {
	// Two parallel paths: cheap one of capacity 5, expensive one of
	// capacity 10. Sending 8 uses the cheap path fully.
	g := newFlowGraph(4)
	mustEdge(t, g, 0, 1, 5, 1)
	mustEdge(t, g, 1, 3, 5, 1)
	mustEdge(t, g, 0, 2, 10, 4)
	mustEdge(t, g, 2, 3, 10, 4)
	sent, cost, err := g.MinCostFlow(0, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sent-8) > 1e-9 {
		t.Fatalf("sent = %v, want 8", sent)
	}
	want := 5.0*2 + 3.0*8
	if math.Abs(cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", cost, want)
	}
	if err := g.FlowConservationError(0, 3, sent, 1e-9); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestMinCostFlowPartial(t *testing.T) {
	g := newFlowGraph(2)
	mustEdge(t, g, 0, 1, 3, 2)
	sent, cost, err := g.MinCostFlow(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sent-3) > 1e-9 || math.Abs(cost-6) > 1e-9 {
		t.Errorf("sent=%v cost=%v, want 3, 6", sent, cost)
	}
}

func TestMinCostFlowPrefersReroute(t *testing.T) {
	// Sending more flow must be able to undo an earlier greedy choice via
	// residual edges.
	g := newFlowGraph(4)
	mustEdge(t, g, 0, 1, 2, 1)
	mustEdge(t, g, 1, 3, 1, 1)
	mustEdge(t, g, 1, 2, 1, 1)
	mustEdge(t, g, 0, 2, 1, 10)
	mustEdge(t, g, 2, 3, 2, 1)
	sent, cost, err := g.MinCostFlow(0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sent-3) > 1e-9 {
		t.Fatalf("sent = %v, want 3", sent)
	}
	// Optimal: 0-1-3 (1 unit, cost 2), 0-1-2-3 (1 unit, cost 3),
	// 0-2-3 (1 unit, cost 11) -> total 16.
	if math.Abs(cost-16) > 1e-9 {
		t.Errorf("cost = %v, want 16", cost)
	}
}

// randomFlowNetwork builds a connected random DAG-ish network.
func randomFlowNetwork(rng *rand.Rand, n int) *flowGraph {
	g := newFlowGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.35 {
				capacity := float64(1 + rng.Intn(10))
				cost := float64(1 + rng.Intn(9))
				if _, err := g.AddEdge(i, j, capacity, cost); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestMaxFlowRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		g := randomFlowNetwork(rng, n)
		f, err := g.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if f < 0 {
			t.Fatalf("negative max flow %v", f)
		}
		if err := g.FlowConservationError(0, n-1, f, 1e-7); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Max flow can not exceed the capacity of the source cut.
		srcCap := 0.0
		for id := 0; id < g.NumEdges(); id++ {
			e := g.EdgeInfo(id)
			if e.From == 0 {
				srcCap += e.Cap
			}
		}
		if f > srcCap+1e-9 {
			t.Fatalf("flow %v exceeds source cut %v", f, srcCap)
		}
	}
}

func TestMinCostFlowMatchesMaxFlowValue(t *testing.T) {
	// Min-cost flow asked for an unreachable amount must deliver exactly
	// the max-flow value.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		g1 := randomFlowNetwork(rng, n)
		g2 := newFlowGraph(n)
		for id := 0; id < g1.NumEdges(); id++ {
			e := g1.EdgeInfo(id)
			if _, err := g2.AddEdge(e.From, e.To, e.Cap, e.Cost); err != nil {
				t.Fatal(err)
			}
		}
		mf, err := g1.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		sent, _, err := g2.MinCostFlow(0, n-1, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mf-sent) > 1e-6 {
			t.Fatalf("trial %d: max flow %v != min-cost-flow saturation %v", trial, mf, sent)
		}
	}
}
