package timegraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
)

// fullSweep is the reference ShortestPath: it relaxes every edge of every
// slot of the window in index order, pricing each through a per-edge
// callback. The layer-pruned sweep must agree with it on path, weight bits
// and ok.
func fullSweep(g *Graph, f netmodel.File, weight func(e *Edge) float64) (path []int, w float64, ok bool) {
	n := g.nw.NumDCs()
	first := max(f.Release, g.start)
	endLayer := min(f.Release+f.Deadline, g.start+g.horizon)
	if first > endLayer {
		return nil, 0, false
	}
	layers := endLayer - first + 1
	dist := make([]float64, layers*n)
	pred := make([]int32, layers*n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[int(f.Src)] = 0
	for layer := first; layer < endLayer; layer++ {
		base := (layer - first) * n
		next := base + n
		slot := g.SlotEdges(layer)
		for i := range slot {
			e := &slot[i]
			from := dist[base+int(e.From)]
			if math.IsInf(from, 1) {
				continue
			}
			cw := weight(e)
			if math.IsInf(cw, 1) {
				continue
			}
			if d := from + cw; d < dist[next+int(e.To)] {
				dist[next+int(e.To)] = d
				pred[next+int(e.To)] = int32(e.Index) + 1
			}
		}
	}
	goal := (layers-1)*n + int(f.Dst)
	if math.IsInf(dist[goal], 1) {
		return nil, 0, false
	}
	for node := goal; pred[node] != 0; {
		e := &g.edges[pred[node]-1]
		path = append(path, e.Index)
		node = (e.Slot-first)*n + int(e.From)
	}
	slices.Reverse(path)
	return path, dist[goal], true
}

// FuzzShortestPath holds the layer-pruned sweep to fullSweep on random
// overlays that are not complete, under weights that are negative, +Inf,
// shared between edges or tied on the edges into the destination, for
// every storage policy and for windows of one slot, windows the graph
// clamps and releases before the graph's first layer.
func FuzzShortestPath(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(3), uint8(2), uint8(2), uint8(0), uint8(128), uint8(0))
	f.Add(int64(2), uint8(6), uint8(2), uint8(4), uint8(1), uint8(5), uint8(1), uint8(200), uint8(1))
	f.Add(int64(3), uint8(3), uint8(3), uint8(2), uint8(0), uint8(7), uint8(2), uint8(90), uint8(2))
	f.Add(int64(4), uint8(8), uint8(1), uint8(5), uint8(3), uint8(0), uint8(0), uint8(40), uint8(3))
	f.Add(int64(5), uint8(5), uint8(0), uint8(1), uint8(2), uint8(1), uint8(1), uint8(255), uint8(1))
	f.Add(int64(6), uint8(7), uint8(4), uint8(6), uint8(5), uint8(3), uint8(2), uint8(160), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, startRaw, horizonRaw, relRaw, dlRaw, policyRaw, densityRaw, tieRaw uint8) {
		n := 2 + int(nRaw)%7 // 2-8 datacenters
		start := int(startRaw) % 4
		horizon := 1 + int(horizonRaw)%5
		// Releases from two layers before the graph to one past its end,
		// deadlines of 1-6 slots: one-slot windows, clamped windows and
		// empty ones all occur.
		release := start - 2 + int(relRaw)%(horizon+4)
		deadline := 1 + int(dlRaw)%6
		policy := StoragePolicy(int(policyRaw) % 3)
		rng := rand.New(rand.NewSource(seed))

		nw, err := netmodel.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(256) < int(densityRaw) {
					if err := nw.SetLink(netmodel.DC(i), netmodel.DC(j), 1, 10); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		g, err := Build(nw, start, horizon)
		if err != nil {
			t.Fatal(err)
		}

		// Weights: a shared entry per link (as pricing keys untouched
		// links), plus own entries for some edges. Small integers make ties
		// common.
		draw := func() float64 {
			switch r := rng.Intn(40); {
			case r < 4:
				return math.Inf(1)
			case r == 4:
				return math.Inf(-1)
			case r < 12:
				return -float64(rng.Intn(4))
			case r < 32:
				return float64(rng.Intn(4))
			default:
				return rng.NormFloat64()
			}
		}
		per := g.NumEdges() / horizon
		w := Weights{Ref: make([]int32, g.NumEdges())}
		for i := 0; i < per; i++ {
			w.Val = append(w.Val, draw())
		}
		for i := range w.Ref {
			e := g.Edge(i)
			switch {
			case e.Storage:
				w.Ref[i] = -1 // never read: a read panics
			case rng.Intn(2) == 0:
				w.Ref[i] = int32(i % per)
			default:
				w.Ref[i] = int32(len(w.Val))
				w.Val = append(w.Val, draw())
			}
		}

		var pf PathFinder
		for k := 0; k < 4; k++ {
			src := netmodel.DC(rng.Intn(n))
			dst := netmodel.DC((int(src) + 1 + rng.Intn(n-1)) % n)
			file := netmodel.File{ID: k, Src: src, Dst: dst, Size: 1, Deadline: deadline, Release: release + k%2}
			if tieRaw%2 == 1 {
				// Tie every transfer edge into dst in the window's last
				// slot, at zero (the weight of dst's hold) or at a small
				// integer.
				tie := 0.0
				if tieRaw%4 == 3 {
					tie = float64(rng.Intn(3))
				}
				if last := min(file.Release+file.Deadline, start+horizon) - 1; last >= start {
					for i := 0; i < n; i++ {
						if e, ok := g.EdgeAt(netmodel.DC(i), dst, last); ok && !e.Storage {
							w.Ref[e.Index] = int32(len(w.Val))
							w.Val = append(w.Val, tie)
						}
					}
				}
			}
			wantPath, wantW, wantOK := fullSweep(g, file, func(e *Edge) float64 {
				if !policy.Permits(file, e) {
					return math.Inf(1)
				}
				if e.Storage {
					return 0
				}
				return w.Val[w.Ref[e.Index]]
			})
			gotPath, gotW, gotOK := pf.ShortestPath(g, file, policy, w)
			if gotOK != wantOK {
				t.Fatalf("file %+v: ok = %v, full sweep %v", file, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if math.Float64bits(gotW) != math.Float64bits(wantW) || !slices.Equal(gotPath, wantPath) {
				t.Fatalf("file %+v: path %v weight %v, full sweep %v weight %v", file, gotPath, gotW, wantPath, wantW)
			}
		}
	})
}
