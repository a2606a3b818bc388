package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/interdc/postcard/internal/lp"
)

// minCostFlowModel formulates a min-cost-flow instance as an LP:
// variables are edge flows, conservation at every node, demand routed from
// s to t. ok is false when the instance is structurally infeasible (an
// isolated node with nonzero demand).
func minCostFlowModel(t *testing.T, g *flowGraph, s, sink int, want float64) (m *lp.Model, ok bool) {
	t.Helper()
	m = lp.NewModel()
	vars := make([]lp.VarID, g.NumEdges())
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeInfo(id)
		vars[id] = m.AddVariable(0, e.Cap, e.Cost, "")
	}
	for v := 0; v < g.NumNodes(); v++ {
		var idx []lp.VarID
		var val []float64
		for id := 0; id < g.NumEdges(); id++ {
			e := g.EdgeInfo(id)
			if e.From == v {
				idx = append(idx, vars[id])
				val = append(val, 1)
			}
			if e.To == v {
				idx = append(idx, vars[id])
				val = append(val, -1)
			}
		}
		rhs := 0.0
		switch v {
		case s:
			rhs = want
		case sink:
			rhs = -want
		}
		if len(idx) == 0 {
			if rhs != 0 {
				return nil, false
			}
			continue
		}
		if _, err := m.AddConstraint(lp.EQ, rhs, idx, val); err != nil {
			t.Fatal(err)
		}
	}
	return m, true
}

// minCostFlowLP solves the LP formulation, returning the optimal cost, or
// ok=false when the LP is infeasible (demand exceeds max flow).
func minCostFlowLP(t *testing.T, g *flowGraph, s, sink int, want float64) (float64, bool) {
	t.Helper()
	m, ok := minCostFlowModel(t, g, s, sink, want)
	if !ok {
		return 0, false
	}
	sol, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		return 0, false
	}
	return sol.Objective, true
}

// TestMinCostFlowLPPricingAgreement checks the LP's devex pricing against
// the combinatorial successive-shortest-path optimum on every feasible
// min-cost-flow instance.
func TestMinCostFlowLPPricingAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		g1 := randomFlowNetwork(rng, n)
		// MaxFlow and MinCostFlow mutate residual state; give each its own
		// copy and build the LP from a pristine one.
		g2, g3 := newFlowGraph(n), newFlowGraph(n)
		for id := 0; id < g1.NumEdges(); id++ {
			e := g1.EdgeInfo(id)
			if _, err := g2.AddEdge(e.From, e.To, e.Cap, e.Cost); err != nil {
				t.Fatal(err)
			}
			if _, err := g3.AddEdge(e.From, e.To, e.Cap, e.Cost); err != nil {
				t.Fatal(err)
			}
		}
		mf, err := g1.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if mf < 1e-6 {
			continue
		}
		demand := mf / 2
		_, combCost, err := g2.MinCostFlow(0, n-1, demand)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := minCostFlowModel(t, g3, 0, n-1, demand)
		if !ok {
			t.Fatalf("trial %d: LP model infeasible for feasible demand", trial)
		}
		dv, err := m.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if dv.Status != lp.Optimal {
			t.Fatalf("trial %d: status %v", trial, dv.Status)
		}
		scale := 1 + math.Abs(combCost)
		if math.Abs(dv.Objective-combCost) > 1e-5*scale {
			t.Fatalf("trial %d: LP %v != combinatorial %v", trial, dv.Objective, combCost)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked; generator too degenerate", checked)
	}
}

// TestMinCostFlowMatchesLP cross-checks the combinatorial successive-
// shortest-path algorithm against an independent LP formulation of the
// same instances.
func TestMinCostFlowMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		g1 := randomFlowNetwork(rng, n)
		g2 := newFlowGraph(n)
		for id := 0; id < g1.NumEdges(); id++ {
			e := g1.EdgeInfo(id)
			if _, err := g2.AddEdge(e.From, e.To, e.Cap, e.Cost); err != nil {
				t.Fatal(err)
			}
		}
		// Determine a feasible demand: half the max flow.
		mf, err := g1.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if mf < 1e-6 {
			continue
		}
		demand := mf / 2
		sent, combCost, err := g2.MinCostFlow(0, n-1, demand)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sent-demand) > 1e-6 {
			t.Fatalf("trial %d: sent %v of feasible demand %v", trial, sent, demand)
		}
		lpCost, ok := minCostFlowLP(t, g2, 0, n-1, demand)
		if !ok {
			t.Fatalf("trial %d: LP infeasible for feasible demand", trial)
		}
		if math.Abs(combCost-lpCost) > 1e-5*(1+math.Abs(lpCost)) {
			t.Fatalf("trial %d: combinatorial cost %v != LP cost %v", trial, combCost, lpCost)
		}
		checked++
	}
	if checked < 15 {
		t.Fatalf("only %d instances checked; generator too degenerate", checked)
	}
}

// TestMaxFlowMatchesLP cross-checks Dinic against the LP max-flow.
func TestMaxFlowMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		g := randomFlowNetwork(rng, n)
		mf, err := g.MaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		// LP: maximize flow out of source minus flow in.
		m := lp.NewModel()
		m.SetMaximize()
		vars := make([]lp.VarID, g.NumEdges())
		for id := 0; id < g.NumEdges(); id++ {
			e := g.EdgeInfo(id)
			obj := 0.0
			if e.From == 0 {
				obj += 1
			}
			if e.To == 0 {
				obj -= 1
			}
			vars[id] = m.AddVariable(0, e.Cap, obj, "")
		}
		for v := 1; v < n-1; v++ {
			var idx []lp.VarID
			var val []float64
			for id := 0; id < g.NumEdges(); id++ {
				e := g.EdgeInfo(id)
				if e.From == v {
					idx = append(idx, vars[id])
					val = append(val, 1)
				}
				if e.To == v {
					idx = append(idx, vars[id])
					val = append(val, -1)
				}
			}
			if len(idx) == 0 {
				continue
			}
			if _, err := m.AddConstraint(lp.EQ, 0, idx, val); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := m.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("trial %d: LP status %v", trial, sol.Status)
		}
		if math.Abs(sol.Objective-mf) > 1e-6*(1+mf) {
			t.Fatalf("trial %d: Dinic %v != LP %v", trial, mf, sol.Objective)
		}
	}
}
