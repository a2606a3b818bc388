package lp

import (
	"math/rand"
	"testing"
)

// TestDevexMatchesDantzigRandom is the pricing-rule equivalence property on
// random LPs (seed 424). Devex is the only pricing rule the sparse simplex
// has; the test keeps the name of the Dantzig rule it was first compared
// against and now checks devex against the dense tableau reference.
func TestDevexMatchesDantzigRandom(t *testing.T) { crossCheckRandom(t, 424) }

// randomFlowModel builds a min-cost-flow LP over a random digraph: one edge
// variable per arc with capacity bounds, flow conservation at every node,
// and a guaranteed-feasible demand thanks to an expensive direct arc from
// source to sink. These massively degenerate network LPs are the structure
// Postcard's time-expanded graphs produce, and the regime where pricing
// rules diverge hardest in trajectory.
func randomFlowModel(rng *rand.Rand) *Model { return flowModel(rng, 5+rng.Intn(8)) }

// largeFlowModel is randomFlowModel on 110 nodes: some 4,200 arcs, so every
// per-iteration kernel walks thousands of columns instead of dozens.
func largeFlowModel(rng *rand.Rand) *Model { return flowModel(rng, 110) }

// flowModel builds the min-cost-flow LP of randomFlowModel on n nodes.
func flowModel(rng *rand.Rand, n int) *Model {
	src, sink := 0, n-1
	demand := 1 + float64(rng.Intn(20))

	m := NewModel()
	type arc struct {
		from, to int
		v        VarID
	}
	var arcs []arc
	add := func(from, to int, cap, cost float64) {
		v := m.AddVariable(0, cap, cost, "")
		arcs = append(arcs, arc{from, to, v})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.35 {
				add(i, j, float64(1+rng.Intn(15)), float64(rng.Intn(10)))
			}
		}
	}
	// Feasibility backstop: a direct arc wide enough for the whole demand,
	// priced far above everything else so it is only used when needed.
	add(src, sink, demand, 1000)

	for v := 0; v < n; v++ {
		var idx []VarID
		var val []float64
		for _, a := range arcs {
			if a.from == v {
				idx = append(idx, a.v)
				val = append(val, 1)
			}
			if a.to == v {
				idx = append(idx, a.v)
				val = append(val, -1)
			}
		}
		rhs := 0.0
		switch v {
		case src:
			rhs = demand
		case sink:
			rhs = -demand
		}
		if len(idx) == 0 {
			continue
		}
		if _, err := m.AddConstraint(EQ, rhs, idx, val); err != nil {
			panic(err)
		}
	}
	return m
}

// TestNetworkCrossCheck is TestRandomCrossCheck on structured network LPs,
// where degeneracy makes the pivot paths of devex pricing and the dense
// tableau diverge hardest.
func TestNetworkCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := randomFlowModel(rng)
		s, d := solveBoth(t, m)
		if s.Status != Optimal {
			t.Fatalf("trial %d: network LP not optimal: %v", trial, s.Status)
		}
		checkAgainstDense(t, trial, m, s, d)
	}
}

// TestDevexReportsSparseCounters checks that the new Solution counters are
// populated and internally consistent on a network LP: every triangular
// solve is tallied exactly once, the aggregate result size never exceeds
// the dimension total, and devex bookkeeping ran.
func TestDevexReportsSparseCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomFlowModel(rng)
	sol, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	tot := sol.SparseSolves + sol.DenseSolves
	if tot == 0 {
		t.Fatal("no triangular solves recorded")
	}
	if sol.SolveDim <= 0 || sol.SolveNNZ <= 0 || sol.SolveNNZ > sol.SolveDim {
		t.Fatalf("inconsistent solve totals: nnz %d, dim %d", sol.SolveNNZ, sol.SolveDim)
	}
	if sol.DevexResets == 0 {
		t.Fatal("devex framework never initialized (DevexResets = 0)")
	}
	if sol.DualRecomputes == 0 {
		t.Fatal("maintained reduced costs never computed (DualRecomputes = 0)")
	}
}

// TestSteadyStateIterationAllocs pins the zero-allocation property of the
// per-iteration simplex kernels: once the solver's pooled buffers are warm,
// FTRAN of an entering column, BTRAN of a pivot-row unit vector, pivot-row
// assembly over the CSR mirror, and devex pricing must not allocate. This
// is the property that keeps large time-expanded solves out of the
// allocator; a regression here shows up as GC pressure long before it
// shows up as wrong answers.
func TestSteadyStateIterationAllocs(t *testing.T) {
	cases := []struct {
		name  string
		model func(*rand.Rand) *Model
	}{
		{"random", randomFlowModel},
		{"large", largeFlowModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(rand.New(rand.NewSource(12)))
			// A huge refactorization interval keeps the eta file growing
			// instead of periodically resetting, exercising the pooled eta
			// storage; the pool reaches its high-water mark during the
			// warm-up solve.
			s, err := m.loadSimplex(nil, &Options{refactorEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.coldStart(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.run(); err != nil {
				t.Fatal(err)
			}

			// Warm every kernel once so lazily grown workspace buffers reach
			// their steady-state sizes before measuring.
			kernels := func() {
				s.ftran(0)
				s.clearW()
				s.btranUnit(0)
				s.pivotRowAlpha()
				s.clearAlpha()
				s.clearRho()
				s.priceDevex()
				s.priceMaintainedWindow()
			}
			kernels()

			if allocs := testing.AllocsPerRun(200, kernels); allocs != 0 {
				t.Fatalf("steady-state iteration kernels allocate %.1f times per run, want 0", allocs)
			}
		})
	}
}
