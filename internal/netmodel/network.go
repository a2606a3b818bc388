// Package netmodel models the inter-datacenter overlay network of the
// paper: datacenters connected by directed overlay links, each link with a
// per-slot capacity and a price per traffic unit, plus the percentile-based
// charging schemes ISPs apply to the per-slot traffic volumes.
//
// Units follow the paper's time-slotted model: time advances in slots of
// equal duration (the ISP's 5-minute accounting interval), sizes and
// volumes are in GB, and link capacities are expressed in GB per slot, so a
// "rate" and a "volume per slot" coincide.
package netmodel

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
)

// DC identifies a datacenter by index.
type DC int

// Link is a directed overlay link between two datacenters.
type Link struct {
	From, To DC
}

// String renders the link as "i->j".
func (l Link) String() string { return fmt.Sprintf("%d->%d", int(l.From), int(l.To)) }

// Network is a directed inter-datacenter overlay. Links are directed;
// a complete network has n*(n-1) of them. The zero capacity marks a
// non-existent link.
type Network struct {
	n        int
	price    []float64 // dense n*n, price per GB
	capacity []float64 // dense n*n, GB per slot
	exists   []bool
}

// NewNetwork creates a network with n datacenters and no links.
func NewNetwork(n int) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netmodel: network needs at least one datacenter, got %d", n)
	}
	return &Network{
		n:        n,
		price:    make([]float64, n*n),
		capacity: make([]float64, n*n),
		exists:   make([]bool, n*n),
	}, nil
}

// NumDCs reports the number of datacenters.
func (nw *Network) NumDCs() int { return nw.n }

func (nw *Network) idx(i, j DC) int { return int(i)*nw.n + int(j) }

// SetLink installs (or overwrites) the directed link i->j with the given
// price per GB and capacity in GB/slot.
func (nw *Network) SetLink(i, j DC, price, capacity float64) error {
	if err := nw.checkDC(i); err != nil {
		return err
	}
	if err := nw.checkDC(j); err != nil {
		return err
	}
	if i == j {
		return fmt.Errorf("netmodel: self-link %d->%d not allowed (storage is implicit)", i, j)
	}
	if price < 0 || capacity < 0 {
		return fmt.Errorf("netmodel: negative price %v or capacity %v on %d->%d", price, capacity, i, j)
	}
	k := nw.idx(i, j)
	nw.price[k] = price
	nw.capacity[k] = capacity
	nw.exists[k] = true
	return nil
}

func (nw *Network) checkDC(d DC) error {
	if int(d) < 0 || int(d) >= nw.n {
		return fmt.Errorf("netmodel: datacenter %d out of range [0, %d)", int(d), nw.n)
	}
	return nil
}

// HasLink reports whether the directed link i->j exists.
func (nw *Network) HasLink(i, j DC) bool {
	if i == j || int(i) < 0 || int(j) < 0 || int(i) >= nw.n || int(j) >= nw.n {
		return false
	}
	return nw.exists[nw.idx(i, j)]
}

// Price reports the cost per GB on link i->j. Zero when absent.
func (nw *Network) Price(i, j DC) float64 {
	if !nw.HasLink(i, j) {
		return 0
	}
	return nw.price[nw.idx(i, j)]
}

// Capacity reports the base capacity of link i->j in GB/slot. Zero when
// absent.
func (nw *Network) Capacity(i, j DC) float64 {
	if !nw.HasLink(i, j) {
		return 0
	}
	return nw.capacity[nw.idx(i, j)]
}

// Links invokes fn for every existing directed link.
func (nw *Network) Links(fn func(l Link, price, capacity float64)) {
	for i := 0; i < nw.n; i++ {
		for j := 0; j < nw.n; j++ {
			if i == j || !nw.exists[i*nw.n+j] {
				continue
			}
			k := i*nw.n + j
			fn(Link{From: DC(i), To: DC(j)}, nw.price[k], nw.capacity[k])
		}
	}
}

// Unreachable is the hop distance Hops reports for a datacenter with no
// path to or from the origin; it exceeds any layer count or hop budget.
const Unreachable = 1 << 30

// Hops runs breadth-first search over the links from d (toward false) or
// along reversed links toward d (toward true). dist[i] is the minimum
// number of hops between i and d (Unreachable when there is none), and
// prev[i] is i's parent in the search tree: the datacenter one hop nearer
// to d (-1 at d and at unreachable datacenters). Neighbours are scanned in
// ascending order, so the tree, and every route read back through prev, is
// deterministic.
func (nw *Network) Hops(d DC, toward bool) (dist []int, prev []DC) {
	dist = make([]int, nw.n)
	prev = make([]DC, nw.n)
	for i := range dist {
		dist[i], prev[i] = Unreachable, -1
	}
	dist[d] = 0
	queue := []DC{d}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for u := 0; u < nw.n; u++ {
			from, to := v, DC(u)
			if toward {
				from, to = to, from
			}
			if dist[u] == Unreachable && nw.HasLink(from, to) {
				dist[u], prev[u] = dist[v]+1, v
				queue = append(queue, DC(u))
			}
		}
	}
	return dist, prev
}

// CheapestPath runs Dijkstra's search from src to dst over the links, where
// link l costs weight(l) and a weight of +Inf excludes it; weights must be
// nonnegative. It returns the path's links in order and its cost, or ok =
// false when dst cannot be reached (src = dst is the empty path at cost 0).
// Out-links are scanned in ascending head order and a label improves only
// when it drops by more than 1e-9, so among paths of (nearly) equal cost the
// first one found is kept and every route is deterministic.
func (nw *Network) CheapestPath(src, dst DC, weight func(Link) float64) (path []Link, cost float64, ok bool) {
	const eps = 1e-9
	dist := make([]float64, nw.n)
	prev := make([]DC, nw.n)
	for i := range dist {
		dist[i], prev[i] = math.Inf(1), -1
	}
	dist[src] = 0
	pq := &pathHeap{}
	heap.Push(pq, pathLabel{dc: src, dist: 0})
	for pq.Len() > 0 {
		label := heap.Pop(pq).(pathLabel)
		v := label.dc
		if label.dist > dist[v]+eps {
			continue // stale label
		}
		for u := DC(0); int(u) < nw.n; u++ {
			if !nw.HasLink(v, u) {
				continue
			}
			w := weight(Link{From: v, To: u})
			if math.IsInf(w, 1) {
				continue
			}
			if nd := dist[v] + w; nd < dist[u]-eps {
				dist[u], prev[u] = nd, v
				heap.Push(pq, pathLabel{dc: u, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	for v := dst; v != src; v = prev[v] {
		path = append(path, Link{From: prev[v], To: v})
	}
	slices.Reverse(path)
	return path, dist[dst], true
}

// pathLabel is a tentative distance of CheapestPath's search, and pathHeap
// the container/heap of them ordered by distance.
type pathLabel struct {
	dc   DC
	dist float64
}

type pathHeap []pathLabel

func (p pathHeap) Len() int           { return len(p) }
func (p pathHeap) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pathHeap) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pathHeap) Push(x any)        { *p = append(*p, x.(pathLabel)) }
func (p *pathHeap) Pop() any {
	old := *p
	n := len(old)
	label := old[n-1]
	*p = old[:n-1]
	return label
}

// NumLinks reports the number of existing directed links.
func (nw *Network) NumLinks() int {
	c := 0
	for _, e := range nw.exists {
		if e {
			c++
		}
	}
	return c
}

// Complete builds a complete directed network where every ordered pair of
// distinct datacenters is connected. price is consulted per directed pair;
// capacity is uniform (the evaluation settings of Sec. VII).
func Complete(n int, price func(i, j DC) float64, capacity float64) (*Network, error) {
	nw, err := NewNetwork(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := nw.SetLink(DC(i), DC(j), price(DC(i), DC(j)), capacity); err != nil {
				return nil, err
			}
		}
	}
	return nw, nil
}

// File is the paper's four-tuple (s_k, d_k, F_k, T_k) plus bookkeeping: a
// block of data that must travel from Src to Dst within Deadline slots of
// its Release slot. Size is in GB.
type File struct {
	ID       int
	Src, Dst DC
	Size     float64
	Deadline int // maximum tolerable transfer time T_k, in slots (>= 1)
	Release  int // slot at which the file becomes available (t)
}

// Validate checks the file against a network.
func (f File) Validate(nw *Network) error {
	if err := nw.checkDC(f.Src); err != nil {
		return fmt.Errorf("netmodel: file %d source: %w", f.ID, err)
	}
	if err := nw.checkDC(f.Dst); err != nil {
		return fmt.Errorf("netmodel: file %d destination: %w", f.ID, err)
	}
	if f.Src == f.Dst {
		return fmt.Errorf("netmodel: file %d has identical source and destination %d", f.ID, f.Src)
	}
	if f.Size <= 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
		return fmt.Errorf("netmodel: file %d has invalid size %v", f.ID, f.Size)
	}
	if f.Deadline < 1 {
		return fmt.Errorf("netmodel: file %d has deadline %d < 1 slot", f.ID, f.Deadline)
	}
	if f.Release < 0 {
		return fmt.Errorf("netmodel: file %d has negative release slot %d", f.ID, f.Release)
	}
	return nil
}

// CheckBatch validates the files one solve at slot t plans: every file must
// be valid on nw, released no earlier than t, and the only one with its ID
// (every scheduler keys per-file state by ID). It returns the number of
// slots from t to the last deadline, the horizon the solve must cover.
func CheckBatch(nw *Network, files []File, t int) (int, error) {
	var seen map[int]bool
	if len(files) > 1 {
		seen = make(map[int]bool, len(files))
	}
	horizon := 0
	for _, f := range files {
		if err := f.Validate(nw); err != nil {
			return 0, err
		}
		if f.Release < t {
			return 0, fmt.Errorf("netmodel: file %d released at %d before solve slot %d", f.ID, f.Release, t)
		}
		if seen[f.ID] {
			return 0, fmt.Errorf("netmodel: file ID %d appears more than once in the batch", f.ID)
		}
		if seen != nil {
			seen[f.ID] = true
		}
		horizon = max(horizon, f.Release+f.Deadline-t)
	}
	return horizon, nil
}

// DesiredRate is the constant transmission rate of the flow-based model
// (Sec. II-B): size divided by maximum tolerable transfer time, in GB/slot.
func (f File) DesiredRate() float64 { return f.Size / float64(f.Deadline) }
