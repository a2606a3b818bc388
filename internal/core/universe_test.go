package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/timegraph"
)

// universeNetworks returns the topologies the universe test sweeps: a
// bidirectional chain (deep reachability pruning), a complete overlay (no
// pruning at all) and ring-plus-chords sparse networks.
func universeNetworks(t *testing.T, rng *rand.Rand) []namedNetwork {
	t.Helper()
	chain, err := netmodel.NewNetwork(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < 7; i++ {
		for _, l := range []netmodel.Link{{From: netmodel.DC(i), To: netmodel.DC(i + 1)}, {From: netmodel.DC(i + 1), To: netmodel.DC(i)}} {
			if err := chain.SetLink(l.From, l.To, 1+float64(i), 40); err != nil {
				t.Fatal(err)
			}
		}
	}
	nets := []namedNetwork{{"chain", chain}, {"complete", chainNetwork(t, 5, 40)}}
	for s := 0; s < 3; s++ {
		nets = append(nets, namedNetwork{fmt.Sprintf("sparse%d", s), randomSparseNetwork(t, rng, 6+s*2, 40)})
	}
	return nets
}

type namedNetwork struct {
	name string
	nw   *netmodel.Network
}

// floydHops is the brute-force all-pairs hop distance of nw (a large value
// where no path exists), independent of netmodel.Hops.
func floydHops(nw *netmodel.Network) [][]int {
	n := nw.NumDCs()
	const far = 1 << 20
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case nw.HasLink(netmodel.DC(i), netmodel.DC(j)):
				d[i][j] = 1
			default:
				d[i][j] = far
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d[i][j] = min(d[i][j], d[i][k]+d[k][j])
			}
		}
	}
	return d
}

// TestArcUniverseRule pins the per-file arc universe — the (file, edge)
// pairs every consumer must agree on — against a brute-force enumeration
// written out here: the file's deadline window (constraint (10)), then the
// storage policy, then deadline reachability at both endpoints. The arc
// builder's materialized ∪ delayed columns, the path builder's row support
// and both builders' VarUniverse / PrunedVars must match it for every
// storage policy, with and without pruning, on graphs with surplus layers.
func TestArcUniverseRule(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, net := range universeNetworks(t, rng) {
		nw := net.nw
		hops := floydHops(nw)
		n := nw.NumDCs()
		for _, policy := range []StoragePolicy{StorageEverywhere, StorageEndpointsOnly, StorageNone} {
			for _, pruning := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/policy%d/pruning=%v", net.name, policy, pruning), func(t *testing.T) {
					for trial := 0; trial < 4; trial++ {
						at := rng.Intn(3)
						var files []netmodel.File
						for nf := 1 + rng.Intn(4); len(files) < nf; {
							f := netmodel.File{
								ID:       len(files),
								Src:      netmodel.DC(rng.Intn(n)),
								Dst:      netmodel.DC(rng.Intn(n)),
								Size:     1 + 9*rng.Float64(),
								Release:  at + rng.Intn(3),
								Deadline: 1 + rng.Intn(5),
							}
							if f.Src != f.Dst && hops[f.Src][f.Dst] <= f.Deadline {
								files = append(files, f)
							}
						}
						horizon, err := netmodel.CheckBatch(nw, files, at)
						if err != nil {
							t.Fatal(err)
						}
						// Surplus layers, as on a Solver's recycled graph.
						tg, err := timegraph.Build(nw, at, horizon+rng.Intn(3))
						if err != nil {
							t.Fatal(err)
						}
						checkUniverse(t, nw, tg, files, hops, Config{Storage: policy, DisablePruning: !pruning})
					}
				})
			}
		}
	}
}

// checkUniverse compares both builders on one instance with the
// brute-force universe.
func checkUniverse(t *testing.T, nw *netmodel.Network, tg *timegraph.Graph, files []netmodel.File, hops [][]int, conf Config) {
	t.Helper()
	ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(32))
	if err != nil {
		t.Fatal(err)
	}
	// allowed is Reachability.Allowed spelled out on brute-force distances.
	allowed := func(f netmodel.File, dc netmodel.DC, layer int) bool {
		elapsed, remaining := layer-f.Release, f.Release+f.Deadline-layer
		if elapsed < 0 || remaining < 0 {
			return false
		}
		return conf.DisablePruning || (hops[f.Src][dc] <= elapsed && hops[dc][f.Dst] <= remaining)
	}
	want := make([][]bool, len(files))
	support := make([]bool, tg.NumEdges())
	universe, pruned := 0, 0
	for k, f := range files {
		want[k] = make([]bool, tg.NumEdges())
		tg.Edges(func(e timegraph.Edge) {
			if e.Slot < f.Release || e.Slot > f.Release+f.Deadline-1 {
				return
			}
			if e.Storage {
				switch conf.Storage {
				case StorageEndpointsOnly:
					if e.From != f.Src && e.From != f.Dst {
						return
					}
				case StorageNone:
					return
				}
			}
			if !allowed(f, e.From, e.Slot) || !allowed(f, e.To, e.Slot+1) {
				pruned++
				return
			}
			universe++
			want[k][e.Index] = true
			if !e.Storage {
				support[e.Index] = true
			}
		})
	}

	for _, colGen := range []bool{true, false} {
		c := conf
		c.DisableColGen = !colGen
		b, err := prepare(tg, ledger, files, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range files {
			for idx, v := range b.mvars[k] {
				if got := v != -1; got != want[k][idx] {
					t.Fatalf("arc builder (colgen=%v): file %d edge %+v in universe = %v, want %v",
						colGen, files[k].ID, tg.Edge(idx), got, want[k][idx])
				}
			}
		}
		if b.varUniverse != universe || b.prunedVars != pruned {
			t.Fatalf("arc builder (colgen=%v): VarUniverse %d PrunedVars %d, want %d and %d",
				colGen, b.varUniverse, b.prunedVars, universe, pruned)
		}
	}

	reach, err := routability(tg, files, conf)
	if err != nil {
		t.Fatal(err)
	}
	pb := newPathBuilder(nil, tg, ledger, files, reach, conf)
	if err := pb.build(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pb.support, support) {
		t.Fatalf("path builder support %v, want %v", pb.support, support)
	}
	if pb.varUniverse != universe || pb.prunedVars != pruned {
		t.Fatalf("path builder: VarUniverse %d PrunedVars %d, want %d and %d",
			pb.varUniverse, pb.prunedVars, universe, pruned)
	}
}

// referenceShortestHopPath is the crash-route BFS as it stood before the
// overlay's hop distances had one implementation (netmodel.Hops): forward
// search from src scanning neighbours in ascending order, stopping once dst
// is reached.
func referenceShortestHopPath(nw *netmodel.Network, src, dst netmodel.DC) ([]netmodel.DC, bool) {
	n := nw.NumDCs()
	prev := make([]netmodel.DC, n)
	for i := range prev {
		prev[i] = -1
	}
	seen := make([]bool, n)
	seen[src] = true
	queue := []netmodel.DC{src}
	for len(queue) > 0 && !seen[dst] {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			d := netmodel.DC(v)
			if !seen[v] && nw.HasLink(u, d) {
				seen[v] = true
				prev[v] = u
				queue = append(queue, d)
			}
		}
	}
	if !seen[dst] {
		return nil, false
	}
	var rev []netmodel.DC
	for d := dst; d != -1; d = prev[d] {
		rev = append(rev, d)
	}
	path := make([]netmodel.DC, len(rev))
	for i, d := range rev {
		path[len(rev)-1-i] = d
	}
	return path, true
}

// TestShortestHopPathStable: on random sparse directed networks, where
// many pairs have several shortest routes, every crash route equals the
// reference BFS's — the tie-break among equal-hop routes is part of the
// crash basis, so moving it moves pivots.
func TestShortestHopPathStable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		nw, err := netmodel.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		density := 0.15 + 0.35*rng.Float64()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < density {
					if err := nw.SetLink(netmodel.DC(i), netmodel.DC(j), 1, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				got, gotOK := shortestHopPath(nw, netmodel.DC(src), netmodel.DC(dst))
				want, wantOK := referenceShortestHopPath(nw, netmodel.DC(src), netmodel.DC(dst))
				if gotOK != wantOK || !slices.Equal(got, want) {
					t.Fatalf("trial %d, %d->%d: route %v (%v), want %v (%v)", trial, src, dst, got, gotOK, want, wantOK)
				}
			}
		}
	}
}
