package main

import (
	"fmt"
	"math"
	"time"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/timegraph"
)

// The traced run's single-threaded replays: the workload's own batches are
// fed to each layer's public functions directly, timed from here, so that a
// layer's cost is measured without its callers and without lock waiting.

// verifyTol matches the tolerance core uses on its own plans (GB).
const verifyTol = 1e-4

// layerTimes collects the replays' durations by metric stem, and counts.
type layerTimes struct {
	tr       *tracer
	d        map[string][]time.Duration
	problems []string
}

func newLayerTimes(tr *tracer) *layerTimes {
	return &layerTimes{tr: tr, d: make(map[string][]time.Duration)}
}

// time runs fn as one span of the named layer call under parent.
func (lt *layerTimes) time(parent, op int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	lt.tr.leaf(parent, op, name, start, end)
	lt.d[name] = append(lt.d[name], end.Sub(start))
	return end.Sub(start)
}

func (lt *layerTimes) fail(format string, args ...any) {
	lt.problems = append(lt.problems, fmt.Sprintf(format, args...))
}

// pct is percentile p of the named call's durations, in unit.
func (lt *layerTimes) pct(name string, p float64, unit func(time.Duration) float64) float64 {
	v := make([]float64, len(lt.d[name]))
	for i, d := range lt.d[name] {
		v[i] = unit(d)
	}
	return percentile(sorted(v), p)
}

// coreMode says how a workload's scheduler calls core: the stateless Solve
// or a warm Solver, and with which configuration.
type coreMode struct {
	Config *core.Config
	Warm   bool
}

// coreCounts sums core.Result fields over the replayed solves.
type coreCounts struct {
	Solves, Variables, Warm                            int
	Iterations, Phase1                                 int
	Sparse, Dense, NNZ, Dim                            int
	DevexResets, DualRecomputes, Workers               int
	Universe, Pruned                                   int
	Rounds, GenColumns, GenUniverse, LazyRows          int
	Recycled, Fallbacks, GraphReuses, Actions, Commits int
	Edges                                              int
}

func (c *coreCounts) add(r *core.Result) {
	c.Solves++
	c.Variables += r.Variables
	if r.WarmStarted {
		c.Warm++
	}
	c.Iterations += r.Iterations
	c.Phase1 += r.Phase1Iter
	c.Sparse += r.SparseSolves
	c.Dense += r.DenseSolves
	c.NNZ += r.SolveNNZ
	c.Dim += r.SolveDim
	c.DevexResets += r.DevexResets
	c.DualRecomputes += r.DualRecomputes
	c.Workers = max(c.Workers, r.BackendWorkers)
	c.Universe += r.VarUniverse
	c.Pruned += r.PrunedVars
	c.Rounds += r.ColGenRounds
	c.GenColumns += r.ColGenColumns
	c.GenUniverse += r.ColGenUniverse
	c.LazyRows += r.ColGenRows
	c.Recycled += r.PathRecycled
	c.Fallbacks += r.PathFallbacks
}

// layerReplay feeds batches, one at a time and in order, to core and to the
// layers core is built on. Batches of one network share a ledger that each
// committed batch's plan is applied to, exactly as the engine or the daemon
// would; every committed plan must pass schedule.Verify against that ledger.
type layerReplay struct {
	lt       *layerTimes
	charging netmodel.Charging
	mode     coreMode
	counts   *coreCounts // sums over every step, shared by a run's replays
	root     int         // the span every call of the replay hangs under

	nw     *netmodel.Network
	ledger *netmodel.Ledger
	solver *core.Solver
}

func newLayerReplay(lt *layerTimes, charging netmodel.Charging, mode coreMode, counts *coreCounts, root int) *layerReplay {
	return &layerReplay{lt: lt, charging: charging, mode: mode, counts: counts, root: root}
}

// step replays one batch; op labels its spans.
func (lr *layerReplay) step(op int, b batch) error {
	if len(b.Files) == 0 {
		return nil
	}
	lt, c := lr.lt, lr.counts
	if b.Network != lr.nw {
		lr.finish()
		lr.nw = b.Network
		var err error
		if lr.ledger, err = netmodel.NewLedger(lr.nw, lr.charging); err != nil {
			return err
		}
		if lr.mode.Warm {
			lr.solver = core.NewSolver(lr.mode.Config)
		}
	}
	var tg *timegraph.Graph
	var err error
	horizon := b.horizon()
	lt.time(lr.root, op, "timegraph.build", func() { tg, err = timegraph.Build(lr.nw, b.Slot, horizon) })
	if err != nil {
		return err
	}
	c.Edges = max(c.Edges, tg.NumEdges())
	lt.time(lr.root, op, "timegraph.rebase", func() { err = tg.Rebase(b.Slot + 1) })
	if err != nil {
		return err
	}

	var res *core.Result
	lt.time(lr.root, op, "core.solve", func() {
		if lr.solver != nil {
			res, err = lr.solver.Solve(lr.ledger, b.Files, b.Slot)
		} else {
			res, err = core.Solve(lr.ledger, b.Files, b.Slot, lr.mode.Config)
		}
	})
	if err != nil {
		return fmt.Errorf("replaying slot %d: %w", b.Slot, err)
	}
	if res.Status != lp.Optimal {
		return fmt.Errorf("replaying slot %d: LP status %v", b.Slot, res.Status)
	}
	c.add(res)
	if !b.Commit {
		return nil
	}

	lt.time(lr.root, op, "schedule.verify", func() {
		err = schedule.Verify(res.Schedule, lr.nw, b.Files, schedule.VerifyConfig{Residual: lr.ledger.Residual, Tol: verifyTol})
	})
	if err != nil {
		lt.fail("slot %d: replayed plan fails verification: %v", b.Slot, err)
	}
	reservations := netmodel.NewReservations(lr.ledger)
	for _, a := range res.Schedule.Actions() {
		if !a.IsHold() {
			if err := reservations.Reserve(a.From, a.To, a.Slot, a.Amount); err != nil {
				return fmt.Errorf("reserving replayed plan: %w", err)
			}
		}
	}
	lt.time(lr.root, op, "netmodel.res_clone", func() { _ = reservations.Clone() })
	lt.time(lr.root, op, "schedule.apply", func() { err = res.Schedule.Apply(lr.ledger) })
	if err != nil {
		return err
	}
	lt.time(lr.root, op, "netmodel.cost_per_slot", func() { _ = lr.ledger.CostPerSlot() })
	c.Actions += res.Schedule.Len()
	c.Commits++
	return nil
}

// finish folds the current network's warm-solver counters into the counts;
// call it once after the last step.
func (lr *layerReplay) finish() {
	if lr.solver != nil {
		lr.counts.GraphReuses += lr.solver.Stats().GraphReuses
		lr.solver = nil
	}
}

// admissionReplay is what replaying a daemon repetition through a bare
// admission.Controller produced.
type admissionReplay struct {
	First          batch // the first batch solved, for the lp probe
	Expansions     int
	RepublishCalls int
	Stats          admission.Stats
}

// replayAdmission drives a bare admission.Controller and ledger through the
// repetition's transfers in schedule order, single-threaded: Admit, then
// the eager Republish the daemon would queue, and at every slot boundary
// the commit sequence of server.AdvanceSlot (Republish, TakePlan, Apply).
// Beside each Republish the same batch goes through the layer replay, whose
// warm solver therefore sees the controller's exact solve sequence: the
// i-th core.solve and the i-th admission.republish pair up.
func replayAdmission(lt *layerTimes, rep *daemonRep, layers *layerReplay) (*admissionReplay, error) {
	ledger, err := netmodel.NewLedger(rep.Network, layers.charging)
	if err != nil {
		return nil, err
	}
	ctrl, err := admission.NewController(ledger, nil)
	if err != nil {
		return nil, err
	}
	out := &admissionReplay{}
	root := layers.root
	slot, nextID := 0, 1
	republish := func(commit bool) error {
		pending := ctrl.Pending()
		if len(pending) == 0 {
			return nil
		}
		b := batch{rep.Network, slot, pending, commit}
		if out.RepublishCalls == 0 {
			out.First = b
		}
		out.RepublishCalls++
		steps := [2]func() error{
			func() error { return layers.step(slot, b) },
			func() (err error) {
				lt.time(root, slot, "admission.republish", func() { err = ctrl.Republish(slot) })
				return err
			},
		}
		// Whichever solves the batch second finds the caches warm, so the
		// two take turns going first and the bias leaves the median of
		// their differences (admission.swap_p50_us).
		if out.RepublishCalls%2 == 0 {
			steps[0], steps[1] = steps[1], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ops := range [][]op{rep.Warm, rep.Timed, {{Kind: opAdvance}}} {
		for _, o := range ops {
			switch o.Kind {
			case opTransfer:
				f := netmodel.File{
					ID: nextID, Src: netmodel.DC(o.Req.Src), Dst: netmodel.DC(o.Req.Dst),
					Size: o.Req.SizeGB, Deadline: o.Req.Deadline, Release: slot,
				}
				nextID++
				var dec admission.Decision
				lt.time(root, slot, "admission.admit", func() { dec, err = ctrl.Admit(f, slot) })
				if err != nil {
					return nil, err
				}
				out.Expansions += dec.Expansions
				if dec.Admitted {
					if err := republish(false); err != nil {
						return nil, err
					}
				}
			case opAdvance:
				if err := republish(true); err != nil {
					return nil, err
				}
				var plan *schedule.Schedule
				var files []netmodel.File
				lt.time(root, slot, "admission.takeplan", func() { plan, files, err = ctrl.TakePlan() })
				if err != nil {
					return nil, err
				}
				if err := schedule.Verify(plan, rep.Network, files, schedule.VerifyConfig{Residual: ledger.Residual, Tol: verifyTol}); err != nil {
					lt.fail("slot %d: committed plan fails verification: %v", slot, err)
				}
				if err := plan.Apply(ledger); err != nil {
					return nil, err
				}
				slot++
			}
		}
	}
	out.Stats = ctrl.Stats()
	layers.finish()
	return out, nil
}

// lpProbe builds the full, unpruned arc-form Postcard LP of one batch with
// lp.NewModel over timegraph.Build — no pruning, no column generation, no
// crash basis — and solves it with Model.Solve. It returns the cost per
// slot at the optimum, which must agree with core's.
func lpProbe(lt *layerTimes, b batch, charging netmodel.Charging, epsilon float64) (cost float64, iters int, err error) {
	ledger, err := netmodel.NewLedger(b.Network, charging)
	if err != nil {
		return 0, 0, err
	}
	tg, err := timegraph.Build(b.Network, b.Slot, b.horizon())
	if err != nil {
		return 0, 0, err
	}
	m := lp.NewModel()
	x := make(map[netmodel.Link]lp.VarID)
	b.Network.Links(func(l netmodel.Link, price, _ float64) {
		x[l] = m.AddVariable(ledger.ChargedVolume(l.From, l.To), math.Inf(1), price, "")
	})
	// flow[k][e]: file k on edge e, inside the file's window only.
	flow := make([][]lp.VarID, len(b.Files))
	for k, f := range b.Files {
		flow[k] = make([]lp.VarID, tg.NumEdges())
		tg.Edges(func(e timegraph.Edge) {
			flow[k][e.Index] = -1
			if e.Slot < f.Release || e.Slot >= f.Release+f.Deadline {
				return
			}
			obj := epsilon
			if e.Storage {
				obj = 0
			}
			flow[k][e.Index] = m.AddVariable(0, f.Size, obj, "")
		})
	}
	var rowErr error
	addRow := func(sense lp.Sense, rhs float64, idx []lp.VarID, val []float64) {
		if _, err := m.AddConstraint(sense, rhs, idx, val); err != nil && rowErr == nil {
			rowErr = err
		}
	}
	tg.Edges(func(e timegraph.Edge) {
		if e.Storage {
			return
		}
		var idx []lp.VarID
		var val []float64
		for k := range b.Files {
			if v := flow[k][e.Index]; v >= 0 {
				idx, val = append(idx, v), append(val, 1)
			}
		}
		if len(idx) == 0 {
			return
		}
		addRow(lp.LE, ledger.Residual(e.From, e.To, e.Slot), idx, val)
		idx, val = append(idx, x[netmodel.Link{From: e.From, To: e.To}]), append(val, -1)
		addRow(lp.LE, -ledger.VolumeAt(e.From, e.To, e.Slot), idx, val)
	})
	n := b.Network.NumDCs()
	for k, f := range b.Files {
		for layer := f.Release; layer <= f.Release+f.Deadline; layer++ {
			for dc := 0; dc < n; dc++ {
				d := netmodel.DC(dc)
				var idx []lp.VarID
				var val []float64
				for other := 0; other < n; other++ {
					// flow is -1 outside the file's window, which drops the
					// outflow of the deadline layer and the inflow of the
					// release layer.
					if e, ok := tg.EdgeAt(d, netmodel.DC(other), layer); ok && flow[k][e.Index] >= 0 {
						idx, val = append(idx, flow[k][e.Index]), append(val, 1)
					}
					if e, ok := tg.EdgeAt(netmodel.DC(other), d, layer-1); ok && flow[k][e.Index] >= 0 {
						idx, val = append(idx, flow[k][e.Index]), append(val, -1)
					}
				}
				rhs := 0.0
				switch {
				case layer == f.Release && d == f.Src:
					rhs = f.Size
				case layer == f.Release+f.Deadline && d == f.Dst:
					rhs = -f.Size
				}
				if len(idx) > 0 {
					addRow(lp.EQ, rhs, idx, val)
				}
			}
		}
	}
	if rowErr != nil {
		return 0, 0, rowErr
	}
	var sol *lp.Solution
	lt.time(0, 0, "lp.probe_solve", func() { sol, err = m.Solve(nil) })
	if err != nil {
		return 0, 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, 0, fmt.Errorf("lp probe: status %v", sol.Status)
	}
	b.Network.Links(func(l netmodel.Link, price, _ float64) {
		cost += price * sol.Value(x[l])
	})
	return cost, sol.Iterations, nil
}
