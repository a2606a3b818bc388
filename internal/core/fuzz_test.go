package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
)

// FuzzPrunedModelObjective cross-checks the sparse model construction —
// deadline-reachability pruning plus delayed column generation — against
// the fully materialized, unpruned model on randomly generated instances.
// The fuzzer drives the topology (a random ring-plus-chords overlay, so hop
// distances exceed one and pruning actually removes variables), capacities,
// prices, the file mix, and pre-committed ledger traffic; all four on/off
// combinations of the two switches must report the identical LP status and,
// when optimal, the identical objective up to the Epsilon tie-breaking
// term, with a verified schedule (Solve runs its independent verification
// pass on every returned plan).
func FuzzPrunedModelObjective(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(40), uint8(60), false)
	f.Add(int64(2), uint8(6), uint8(5), uint8(12), uint8(30), true)
	f.Add(int64(3), uint8(3), uint8(1), uint8(200), uint8(0), false)
	f.Add(int64(4), uint8(8), uint8(7), uint8(25), uint8(90), true)
	f.Add(int64(5), uint8(5), uint8(4), uint8(8), uint8(50), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, filesRaw, capRaw, loadRaw uint8, tight bool) {
		n := 3 + int(nRaw)%6                     // 3-8 datacenters
		nFiles := 1 + int(filesRaw)%6            // 1-6 files
		capacity := 4 + float64(int(capRaw)%200) // GB/slot
		rng := rand.New(rand.NewSource(seed))

		nw, err := netmodel.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		// Ring backbone keeps every pair routable; random chords vary the
		// hop metric that drives both pruning and crash routes.
		addLink := func(i, j int) {
			price := 1 + float64(rng.Intn(9))
			if err := nw.SetLink(netmodel.DC(i), netmodel.DC(j), price, capacity); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			addLink(i, (i+1)%n)
			addLink((i+1)%n, i)
		}
		chords := rng.Intn(n)
		for c := 0; c < chords; c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && !nw.HasLink(netmodel.DC(i), netmodel.DC(j)) {
				addLink(i, j)
			}
		}

		ledger, err := netmodel.NewLedger(nw, netmodel.MaxCharging(32))
		if err != nil {
			t.Fatal(err)
		}
		// Pre-committed traffic so residual capacities and charged-volume
		// floors are non-trivial.
		for c := 0; c < int(loadRaw)%8; c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if !nw.HasLink(netmodel.DC(i), netmodel.DC(j)) {
				continue
			}
			amt := capacity * rng.Float64() * 0.8
			if err := ledger.Add(netmodel.DC(i), netmodel.DC(j), rng.Intn(4), amt); err != nil {
				t.Fatal(err)
			}
		}

		files := make([]netmodel.File, nFiles)
		for k := range files {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				dst = (dst + 1) % n
			}
			deadline := 1 + rng.Intn(6)
			if tight {
				deadline = 1 + rng.Intn(2)
			}
			files[k] = netmodel.File{
				ID:       k,
				Src:      netmodel.DC(src),
				Dst:      netmodel.DC(dst),
				Size:     0.5 + 20*rng.Float64(),
				Release:  rng.Intn(3),
				Deadline: deadline,
			}
		}
		solveAt := 0

		configs := []Config{
			{},                     // pruning + column generation (default)
			{DisableColGen: true},  // pruning only
			{DisablePruning: true}, // column generation only
			{DisableColGen: true, DisablePruning: true}, // full model
		}
		results := make([]*Result, len(configs))
		for i := range configs {
			res, err := Solve(ledger, files, solveAt, &configs[i])
			if err != nil {
				var ue *UnroutableError
				if errors.As(err, &ue) {
					// Structural unroutability must be config-independent:
					// every other config must agree.
					for j := range configs {
						if _, err2 := Solve(ledger, files, solveAt, &configs[j]); !errors.As(err2, &ue) {
							t.Fatalf("config %d rejected the instance as unroutable but config %d did not: %v", i, j, err2)
						}
					}
					t.Skip("unroutable instance")
				}
				t.Fatalf("config %+v: %v", configs[i], err)
			}
			results[i] = res
		}
		ref := results[len(configs)-1] // full model
		for i, res := range results {
			if res.Status != ref.Status {
				t.Fatalf("config %+v: status %v, full model %v", configs[i], res.Status, ref.Status)
			}
			if res.Status != lp.Optimal {
				continue
			}
			tol := 1e-3 * (1 + math.Abs(ref.CostPerSlot))
			if math.Abs(res.CostPerSlot-ref.CostPerSlot) > tol {
				t.Fatalf("config %+v: objective %v, full model %v (diff %g)",
					configs[i], res.CostPerSlot, ref.CostPerSlot,
					math.Abs(res.CostPerSlot-ref.CostPerSlot))
			}
		}
		// The universe accounting must tie out: pruned + kept == unpruned.
		sparse, dense := results[0], results[len(configs)-1]
		if sparse.VarUniverse+sparse.PrunedVars != dense.VarUniverse {
			t.Fatalf("universe accounting: kept %d + pruned %d != unpruned %d",
				sparse.VarUniverse, sparse.PrunedVars, dense.VarUniverse)
		}
	})
}
