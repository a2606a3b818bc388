package netmodel

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// weights returns a CheapestPath weight function reading w, with links
// absent from w excluded.
func weights(w map[Link]float64) func(Link) float64 {
	return func(l Link) float64 {
		if x, ok := w[l]; ok {
			return x
		}
		return math.Inf(1)
	}
}

func TestCheapestPath(t *testing.T) {
	nw := mustNetwork(t, 4)
	w := map[Link]float64{{0, 1}: 1, {1, 3}: 3, {0, 2}: 2, {2, 3}: 3}
	for l := range w {
		if err := nw.SetLink(l.From, l.To, 1, 5); err != nil {
			t.Fatal(err)
		}
	}
	path, cost, ok := nw.CheapestPath(0, 3, weights(w))
	if !ok {
		t.Fatal("no path found")
	}
	if math.Abs(cost-4) > 1e-9 {
		t.Errorf("cost = %v, want 4", cost)
	}
	if len(path) != 2 || path[0] != (Link{0, 1}) || path[1] != (Link{1, 3}) {
		t.Errorf("path = %v, want [0->1 1->3]", path)
	}
	if path, cost, ok := nw.CheapestPath(2, 2, weights(w)); !ok || path != nil || cost != 0 {
		t.Errorf("src = dst: path %v cost %v ok %v, want the empty path at cost 0", path, cost, ok)
	}
}

func TestCheapestPathExcludesInf(t *testing.T) {
	nw := mustNetwork(t, 3)
	w := map[Link]float64{{0, 2}: math.Inf(1), {0, 1}: 2, {1, 2}: 2}
	for l := range w {
		if err := nw.SetLink(l.From, l.To, 1, 5); err != nil {
			t.Fatal(err)
		}
	}
	path, cost, ok := nw.CheapestPath(0, 2, weights(w))
	if !ok {
		t.Fatal("no path around the excluded link")
	}
	if len(path) != 2 || math.Abs(cost-4) > 1e-9 {
		t.Errorf("path=%v cost=%v, want the 2-hop path of cost 4", path, cost)
	}
}

func TestCheapestPathUnreachable(t *testing.T) {
	nw := mustNetwork(t, 2)
	if _, _, ok := nw.CheapestPath(0, 1, weights(nil)); ok {
		t.Error("expected unreachable")
	}
}

func mustNetwork(t *testing.T, n int) *Network {
	t.Helper()
	nw, err := NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// FuzzCheapestPath checks CheapestPath bit for bit against the multigraph
// Dijkstra it replaced (oracleGraph.ShortestPath below), on random overlays
// with missing links and weights drawn from 0, 1e-9 and 2e-9 (ties within
// the search's 1e-9 comparisons), small integers (equal weights), random
// reals and +Inf. Two oracle graphs are built the ways the search was used:
// the flow family's pricing added only the links of finite weight, and the
// greedy baseline added every link with its spare capacity and searched
// those with at least minSpare − spareTol to spare, which CheapestPath sees
// as a weight of +Inf on the others. Path, cost bits and ok must match.
func FuzzCheapestPath(f *testing.F) {
	f.Add(uint8(5), int64(1), uint8(0), uint8(4), false)
	f.Add(uint8(8), int64(7), uint8(3), uint8(3), false)
	f.Add(uint8(6), int64(42), uint8(1), uint8(5), true)
	f.Add(uint8(2), int64(3), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, size uint8, seed int64, src, dst uint8, greedy bool) {
		n := 1 + int(size%9)
		rng := rand.New(rand.NewSource(seed))
		nw := mustNetwork(t, n)
		w := make(map[Link]float64)
		spare := make(map[Link]float64)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Intn(4) == 0 {
					continue
				}
				l := Link{DC(i), DC(j)}
				if err := nw.SetLink(l.From, l.To, 1, 1); err != nil {
					t.Fatal(err)
				}
				switch rng.Intn(8) {
				case 0:
					w[l] = 0
				case 1:
					w[l] = 1e-9
				case 2:
					w[l] = 2e-9
				case 3:
					w[l] = math.Inf(1)
				case 4, 5:
					w[l] = float64(1 + rng.Intn(3))
				default:
					w[l] = 3 * rng.Float64()
				}
				if greedy {
					threshold := 1e-6
					threshold -= 1e-9 // rounded at run time, as the oracle's comparison is
					spare[l] = []float64{0, threshold, math.Nextafter(threshold, 0), 9.99e-7, 1e-6, 5}[rng.Intn(6)]
				}
			}
		}
		s, d := DC(int(src)%n), DC(int(dst)%n)
		weight := weights(w)
		if greedy {
			const minSpare, spareTol float64 = 1e-6, 1e-9
			weight = func(l Link) float64 {
				if spare[l] < minSpare-spareTol {
					return math.Inf(1)
				}
				return w[l]
			}
		}
		got, gotCost, gotOK := nw.CheapestPath(s, d, weight)

		g := newOracleGraph(n)
		var links []Link // oracle edge id -> link
		nw.Links(func(l Link, _, _ float64) {
			switch {
			case greedy:
				g.AddEdge(int(l.From), int(l.To), spare[l], w[l])
			case math.IsInf(w[l], 1):
				return
			default:
				g.AddEdge(int(l.From), int(l.To), 1, w[l])
			}
			links = append(links, l)
		})
		minResidual := 0.0
		if greedy {
			minResidual = 1e-6
		}
		want, wantCost, wantOK := g.ShortestPath(int(s), int(d), minResidual)
		if gotOK != wantOK || math.Float64bits(gotCost) != math.Float64bits(wantCost) || len(got) != len(want) {
			t.Fatalf("%d -> %d: got %v cost %v ok %v, oracle %d edges cost %v ok %v", s, d, got, gotCost, gotOK, len(want), wantCost, wantOK)
		}
		for i, id := range want {
			if got[i] != links[id] {
				t.Fatalf("%d -> %d: hop %d is %v, oracle %v", s, d, i, got[i], links[id])
			}
		}
	})
}

// oracleGraph is the directed multigraph of the flow baselines' former
// search: edges in pairs, 2k forward and 2k+1 its residual reverse.
type oracleGraph struct {
	n     int
	edges []oracleEdge
	adj   [][]int // node -> indices into edges
}

type oracleEdge struct {
	From, To int
	Cap      float64
	Cost     float64
	Flow     float64
}

func newOracleGraph(n int) *oracleGraph {
	return &oracleGraph{n: n, adj: make([][]int, n)}
}

func (g *oracleGraph) AddEdge(from, to int, capacity, cost float64) {
	id := len(g.edges)
	g.edges = append(g.edges,
		oracleEdge{From: from, To: to, Cap: capacity, Cost: cost},
		oracleEdge{From: to, To: from, Cap: 0, Cost: -cost},
	)
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
}

// residual reports the residual capacity of internal edge index e.
func (g *oracleGraph) residual(e int) float64 {
	if e%2 == 0 {
		return g.edges[e].Cap - g.edges[e].Flow
	}
	return g.edges[e-1].Flow
}

const flowEps = 1e-9

// ShortestPath returns the minimum-cost path from s to t over edges with
// residual capacity at least minResidual, as a list of forward-edge IDs,
// along with its cost. It returns ok=false when t is unreachable. Costs
// must be nonnegative (Dijkstra).
func (g *oracleGraph) ShortestPath(s, t int, minResidual float64) (path []int, cost float64, ok bool) {
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
