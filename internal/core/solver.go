package core

import (
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/telemetry"
	"github.com/interdc/postcard/internal/timegraph"
)

// SolveStats aggregates the LP work a Solver performed over its lifetime.
// All counters are monotone; per-window figures are obtained by subtracting
// two snapshots with telemetry.Sub, and totals by telemetry.Add. The metric
// tags name the daemon's postcard_solver_* series.
type SolveStats struct {
	// Solves counts LP solves actually run (empty-demand slots, which short
	// circuit without a model, are excluded).
	Solves int `metric:"solves_total,LP solves."`
	// WarmSolves counts solves in which the simplex accepted the basis
	// mapped over from the previous slot instead of cold-starting.
	WarmSolves int `metric:"warm_solves_total,LP solves that accepted a mapped warm basis."`
	// GraphReuses counts solves that recycled the cached time-expanded
	// graph skeleton via Rebase instead of rebuilding it.
	GraphReuses int `metric:"graph_reuses_total,Time-expanded graphs recycled across slots."`
	// Counters totals the per-solve work counters of every Result.
	Counters
	// PathSolves counts solves that ran the Dantzig–Wolfe path master
	// (Counters.PathFallbacks the subset that deferred to the arc model).
	PathSolves int `metric:"path_solves_total,Solves served by the Dantzig-Wolfe path master."`
	// AdmissionStats stays zero for pure LP schedulers; the admission fast
	// tier's simulation adapter folds its controller's counters in here so
	// one surface reports both. The daemon exports them from admission.Stats
	// instead, so /metrics skips them here.
	AdmissionStats `metric:"-"`
}

// AdmissionStats counts the admission fast tier's cumulative work (it is
// admission.Stats; it is declared here so SolveStats can embed it). Admits
// and Rejects count fast-path decisions (a batch re-admitted after the
// simulation engine sheds a file counts again — they measure decision
// traffic, not unique files). Republishes counts batches the background
// re-optimizer improved. FastCost totals the provisional cost-per-slot
// increase of batches actually taken (republished batches contribute their
// improved LP delta); RepublishDelta totals the cost per slot the
// re-optimizer shaved off the fast tier's provisional plans. The metric tags
// name the daemon's postcard_admission_* series.
type AdmissionStats struct {
	Admits         int     `metric:"admits_total,Fast-path admissions."`
	Rejects        int     `metric:"rejects_total,Fast-path rejections."`
	Republishes    int     `metric:"republishes_total,Batches improved by the LP republisher."`
	FastCost       float64 `metric:"fast_cost_total,Provisional cost per slot committed by taken batches."`
	RepublishDelta float64 `metric:"republish_delta_total,Cost per slot shaved off provisional plans by republishing."`
}

// Solver is the incremental counterpart of Solve for online slot-by-slot
// use: consecutive calls against the same network reuse the time-expanded
// graph skeleton (rebased instead of rebuilt) and warm-start each LP from
// the previous slot's optimal basis, translated across models by structural
// keys (charged-volume columns per link, capacity/charge rows per edge-slot,
// per-file columns and conservation rows by file identity). The LP presolve
// pass is enabled on every solve.
//
// The cache is advisory only: a mapped basis the simplex cannot use is
// silently discarded for a cold start, so a Solver's results match the
// stateless Solve on every input (same optimal objective; the plan may be a
// different vertex of the same optimal face, with cost differences bounded
// by the Epsilon tie-breaking term).
//
// The cache automatically resets whenever the ledger's network changes
// identity or the solve slot is neither the cached slot (a shedding retry)
// nor its immediate successor. A Solver is not safe for concurrent use;
// parallel drivers must give each goroutine its own instance.
type Solver struct {
	conf Config

	nw    *netmodel.Network
	prevT int
	valid bool
	tg    *timegraph.Graph
	basis *lp.Basis
	cols  []modelKey
	rows  []modelKey
	// bld is the recycled LP builder: every solve reuses its previous
	// model's backing allocations, so steady-state iteration assembles each
	// slot's LP with almost no garbage. pbld is its PricingPath
	// counterpart, recycling the path master's model, registries, arenas
	// and per-worker PathFinder state across slots.
	bld  *builder
	pbld *pathBuilder

	// retain holds, per (src, dst) pair, the node sequences of the path
	// columns active in the previous slot's optimum. The next slot's path
	// master re-materializes them (shifted to each new file's release
	// layer) before its first pricing round, so the restricted master
	// starts from last slot's proven routes instead of artificials alone.
	retain map[netmodel.Link][][]netmodel.DC

	// colStat and rowStat are mapKeys' lookup tables from the cached
	// basis's structural keys to their statuses, cleared and refilled on
	// every warm solve rather than rebuilt.
	colStat map[modelKey]lp.BasisStatus
	rowStat map[modelKey]lp.BasisStatus

	stats SolveStats
}

// NewSolver creates an incremental solver with the given configuration
// (nil selects defaults, exactly as Solve does).
func NewSolver(cfg *Config) *Solver {
	return &Solver{conf: cfg.orZero()}
}

// Stats returns the cumulative work counters.
func (s *Solver) Stats() SolveStats { return s.stats }

// Reset drops all cached state; the next Solve cold-starts. Counters are
// preserved.
func (s *Solver) Reset() {
	s.nw = nil
	s.prevT = 0
	s.valid = false
	s.tg = nil
	s.basis = nil
	s.cols = nil
	s.rows = nil
	// Retained paths name datacenters of the old network; a different
	// network invalidates them wholesale.
	clear(s.retain)
}

// Solve computes the optimal Postcard plan for the files generated at slot
// t, exactly as the package-level Solve does, while maintaining the
// cross-slot cache. See Solver for the reuse contract.
func (s *Solver) Solve(ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	nw := ledger.Network()
	if s.nw != nw || (s.valid && t != s.prevT && t != s.prevT+1) {
		s.Reset()
		s.nw = nw
	}
	if len(files) == 0 {
		// No model to solve; the cached structure stays valid for slot t+1
		// because all keys use absolute slots.
		if s.valid {
			s.prevT = t
		}
		return emptyResult(ledger), nil
	}
	horizon, err := requiredHorizon(nw, files, t)
	if err != nil {
		return nil, err
	}
	tg, err := s.graphFor(nw, t, horizon)
	if err != nil {
		return nil, err
	}
	if s.conf.Pricing == PricingPath {
		return s.solvePath(tg, ledger, files, t)
	}
	b, err := prepare(tg, ledger, files, s.conf, s.bld)
	if err != nil {
		return nil, err
	}
	s.bld = b
	opts := lp.Options{Presolve: true}
	snapshot := false
	if s.valid && s.basis != nil {
		opts.InitialBasis = s.mapBasis(b)
		snapshot = opts.InitialBasis != nil
	}
	if opts.InitialBasis == nil {
		// First solve of a run (or an unusable snapshot): start from the
		// crash basis rather than the bare all-logical one, exactly like the
		// stateless cold path.
		opts.InitialBasis = crashBasis(b)
	}
	res, sol, err := b.solve(&opts)
	if err != nil {
		return nil, err
	}
	// WarmStarted is a statement about solver state carried across slots,
	// not about the synthesized crash basis: a crash-started solve is still
	// a cold solve to every observer of these counters.
	res.WarmStarted = res.WarmStarted && snapshot
	s.record(res)
	s.cache(t, sol, b.colKeys, b.rowKeys)
	return res, nil
}

// solvePath is the PricingPath branch of Solve: the Dantzig–Wolfe path
// master, warm-started from the previous slot's basis through the same
// structural-key translation the arc branch uses (demand rows and path
// columns carry file identity and a path hash, so same-slot shedding
// retries reuse the surviving files' resting states wholesale), with the
// arc-model fallback when the master cannot serve every file.
func (s *Solver) solvePath(tg *timegraph.Graph, ledger *netmodel.Ledger, files []netmodel.File, t int) (*Result, error) {
	reach, err := routability(tg, files, s.conf)
	if err != nil {
		return nil, err
	}
	pb := newPathBuilder(s.pbld, tg, ledger, files, reach, s.conf)
	s.pbld = pb
	if err := pb.build(); err != nil {
		return nil, err
	}
	// Seed the restricted master with the previous slot's active paths
	// before the first pricing round, so generation starts from proven
	// routes instead of re-deriving them from artificials.
	recycled, err := s.seedRetainedPaths(pb)
	if err != nil {
		return nil, err
	}
	opts := lp.Options{Presolve: true}
	snapshot := false
	if s.valid && s.basis != nil {
		if out, rowStat := s.mapKeys(pb.colKeys, pb.rowKeys); out != nil {
			pathCrashNewFiles(out, rowStat, pb)
			opts.InitialBasis = out.Normalize()
			snapshot = true
		}
	}
	if opts.InitialBasis == nil {
		opts.InitialBasis = pathCrashBasis(pb)
	}
	res, sol, fallback, err := pb.solve(&opts)
	if err != nil {
		return nil, err
	}
	res.WarmStarted = res.WarmStarted && snapshot
	if fallback {
		res, err = solveArcFallback(tg, ledger, files, reach, s.conf, res)
		if err != nil {
			return nil, err
		}
	} else {
		s.harvestPaths(pb, sol)
	}
	res.PathRecycled = recycled
	s.record(res)
	s.stats.PathSolves++
	s.cache(t, sol, pb.colKeys, pb.rowKeys)
	return res, nil
}

// maxRetainedPaths caps how many node sequences one (src, dst) pair
// retains across slots; the previous optimum rarely splits one pair's
// demand across more routes than this, and the cap bounds the seeding work
// on adversarial optima.
const maxRetainedPaths = 8

// harvestPaths records the node sequences of the path columns that carry
// flow in the slot's optimum, keyed by (src, dst), replacing the previous
// harvest. Node sequences — not edge indices — survive Rebase and apply to
// next slot's files at any release layer.
func (s *Solver) harvestPaths(pb *pathBuilder, sol *lp.Solution) {
	const tol = 1e-5
	if s.retain == nil {
		s.retain = make(map[netmodel.Link][][]netmodel.DC)
	}
	clear(s.retain)
	for _, c := range pb.cols {
		if sol.Value(c.v) <= tol {
			continue
		}
		f := pb.files[c.file]
		key := netmodel.Link{From: f.Src, To: f.Dst}
		if len(s.retain[key]) >= maxRetainedPaths {
			continue
		}
		nodes := make([]netmodel.DC, 0, int(c.end-c.start)+1)
		nodes = append(nodes, f.Src)
		cur := f.Src
		contiguous := true
		for _, idx := range pb.arena[c.start:c.end] {
			e := pb.tg.Edge(int(idx))
			if e.From != cur {
				contiguous = false
				break
			}
			nodes = append(nodes, e.To)
			cur = e.To
		}
		if !contiguous || cur != f.Dst {
			continue
		}
		dup := false
		for _, p := range s.retain[key] {
			if dcSeqEqual(p, nodes) {
				dup = true
				break
			}
		}
		if !dup {
			s.retain[key] = append(s.retain[key], nodes)
		}
	}
}

// dcSeqEqual reports whether two node sequences are identical.
func dcSeqEqual(a, b []netmodel.DC) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedRetainedPaths re-materializes the retained node sequences as path
// columns of the freshly built master: for each file, every retained path
// of its (src, dst) pair is shifted to the file's release layer, checked
// edge by edge against the graph, the storage policy and the file's
// reachability window (trailing destination holds that overrun a shorter
// deadline are trimmed), and grafted via the same materializePath the
// pricing oracle uses — so duplicates the oracle would regenerate are
// dropped and all lazily created rows follow the ordinary path. It returns
// the number of columns actually added.
func (s *Solver) seedRetainedPaths(pb *pathBuilder) (int, error) {
	if len(s.retain) == 0 {
		return 0, nil
	}
	horizon := pb.tg.Start() + pb.tg.Horizon()
	var edges []int32
	recycled := 0
	for k, f := range pb.files {
		paths := s.retain[netmodel.Link{From: f.Src, To: f.Dst}]
		if len(paths) == 0 {
			continue
		}
		r := pb.reach[k]
		for _, nodes := range paths {
			nsteps := len(nodes) - 1
			for nsteps > f.Deadline && nodes[nsteps] == f.Dst && nodes[nsteps-1] == f.Dst {
				nsteps--
			}
			if nsteps <= 0 || nsteps > f.Deadline || f.Release+nsteps > horizon {
				continue
			}
			edges = edges[:0]
			usable := true
			for i := 0; i < nsteps; i++ {
				from, to := nodes[i], nodes[i+1]
				slot := f.Release + i
				e, found := pb.tg.EdgeAt(from, to, slot)
				if !found {
					usable = false
					break
				}
				if e.Storage {
					switch pb.conf.Storage {
					case StorageEndpointsOnly:
						usable = from == f.Src || from == f.Dst
					case StorageNone:
						usable = false
					}
					if !usable {
						break
					}
				}
				if !r.Allowed(f, from, slot) || !r.Allowed(f, to, slot+1) {
					usable = false
					break
				}
				edges = append(edges, int32(e.Index))
			}
			if !usable {
				continue
			}
			before := len(pb.cols)
			if err := pb.materializePath(k, edges); err != nil {
				return recycled, err
			}
			if len(pb.cols) > before {
				recycled++
			}
		}
	}
	return recycled, nil
}

// record folds one solve's counters into the cumulative stats.
func (s *Solver) record(res *Result) {
	s.stats.Solves++
	telemetry.Add(&s.stats.Counters, res.Counters)
	if res.WarmStarted {
		s.stats.WarmSolves++
	}
}

// cache stores the final resting state — also for infeasible outcomes,
// whose basis warm-starts the engine's shed-and-retry re-solve of the same
// slot with a subset of the files. The keys are copied: builders are
// recycled, so their own slices are clobbered by the next slot's build
// before the mapping reads them.
func (s *Solver) cache(t int, sol *lp.Solution, colKeys, rowKeys []modelKey) {
	s.prevT = t
	s.valid = true
	if sol.Basis != nil {
		s.basis = sol.Basis
		s.cols = append(s.cols[:0], colKeys...)
		s.rows = append(s.rows[:0], rowKeys...)
	} else {
		s.basis = nil
		s.cols = nil
		s.rows = nil
	}
}

// graphFor returns a time-expanded graph starting at t with at least the
// given horizon, recycling the cached skeleton when it is large enough.
// A recycled graph only ever has surplus layers, which contribute nothing
// to the assembled LP (see prepare), so recycling is invisible to results.
func (s *Solver) graphFor(nw *netmodel.Network, t, horizon int) (*timegraph.Graph, error) {
	if s.tg != nil && s.tg.Horizon() >= horizon {
		if err := s.tg.Rebase(t); err == nil {
			s.stats.GraphReuses++
			return s.tg, nil
		}
	}
	tg, err := timegraph.Build(nw, t, horizon)
	if err != nil {
		return nil, err
	}
	s.tg = tg
	return tg, nil
}

// crashBasis builds the advanced starting basis for a from-scratch solve:
// the all-logical cold default upgraded by crashNewFiles, so every file
// starts with its crash route (immediate shortest-hop shipment, then
// destination holdovers) basic instead of resting at zero flow. The implied
// basic point already routes each file end to end, so phase 1 only repairs
// capacity overflows where crash routes collide — a handful of pivots
// instead of re-deriving every route by simplex steps.
func crashBasis(b *builder) *lp.Basis {
	nv, nr := len(b.colKeys), len(b.rowKeys)
	out := &lp.Basis{NumVars: nv, NumRows: nr, Status: make([]lp.BasisStatus, nv+nr)}
	for j := 0; j < nv; j++ {
		out.Status[j] = lp.BasisAtLower
	}
	for i := 0; i < nr; i++ {
		out.Status[nv+i] = lp.BasisBasic
	}
	crashNewFiles(out, nil, b)
	return out.Normalize()
}

// mapBasis translates the cached basis snapshot, captured on a previous
// model, onto the builder's freshly assembled model. Columns and rows whose
// structural keys match carry their status over; unmatched columns rest at
// their lower bound and unmatched rows keep their logicals basic (the cold
// default for that position) — except that files absent from the previous
// model get a crash route made basic (see crashNewFiles). The result is
// normalized to the exact basic count the warm-start path requires; any
// residual rank deficiency is left to the LU factorization's singularity
// repair. Only map lookups are used — never map iteration — so the mapping
// is bit-deterministic.
func (s *Solver) mapBasis(b *builder) *lp.Basis {
	out, rowStat := s.mapKeys(b.colKeys, b.rowKeys)
	if out == nil {
		return nil
	}
	crashNewFiles(out, rowStat, b)
	return out.Normalize()
}

// mapKeys performs the formulation-independent half of basis translation:
// columns and rows whose structural keys match carry their status over,
// unmatched columns rest at their lower bound and unmatched rows keep their
// logicals basic. The previous rows' status map is returned so the caller's
// crash upgrade can tell carried files from new ones; it is the Solver's
// own table, valid until the next solve. The caller normalizes after its
// upgrade. Only map lookups are used — never map iteration — so the mapping
// is bit-deterministic.
func (s *Solver) mapKeys(curCols, curRows []modelKey) (*lp.Basis, map[modelKey]lp.BasisStatus) {
	prev, prevCols, prevRows := s.basis, s.cols, s.rows
	if prev == nil || prev.NumVars != len(prevCols) || prev.NumRows != len(prevRows) ||
		len(prev.Status) != prev.NumVars+prev.NumRows {
		return nil, nil
	}
	if s.colStat == nil {
		s.colStat = make(map[modelKey]lp.BasisStatus, len(prevCols))
		s.rowStat = make(map[modelKey]lp.BasisStatus, len(prevRows))
	}
	clear(s.colStat)
	clear(s.rowStat)
	for j, k := range prevCols {
		s.colStat[k] = prev.Status[j]
	}
	for i, k := range prevRows {
		s.rowStat[k] = prev.Status[prev.NumVars+i]
	}
	nv, nr := len(curCols), len(curRows)
	out := &lp.Basis{NumVars: nv, NumRows: nr, Status: make([]lp.BasisStatus, nv+nr)}
	for j, k := range curCols {
		if st, ok := s.colStat[k]; ok {
			out.Status[j] = st
		} else {
			out.Status[j] = lp.BasisAtLower
		}
	}
	for i, k := range curRows {
		if st, ok := s.rowStat[k]; ok {
			out.Status[nv+i] = st
		} else {
			out.Status[nv+i] = lp.BasisBasic
		}
	}
	return out, s.rowStat
}

// crashNewFiles upgrades the mapped basis for files the previous model did
// not contain (on consecutive-slot solves that is all of them; on same-slot
// shedding retries, none). The cold default rests every such file's flow
// columns at zero, which violates its conservation equalities by the full
// file size and leaves phase 1 to route the file from scratch. Instead, each
// new file's cheapest crash route — ship along a BFS shortest-hop path
// immediately, then hold at the destination until the deadline — is made
// basic: every route column is paired with the conservation row of its tail
// node, whose logical leaves the basis. Walked in route order the pairs form
// a lower-triangular block (each column's head row is the next column's tail
// row, and the final head row keeps its basic logical), so the crash never
// makes the basis singular, and the implied basic solution already carries
// the file end to end — phase 1 only has to repair capacity overflows where
// crash routes collide. Files whose route columns are missing (storage
// policy, clamped horizon) keep the cold default.
func crashNewFiles(out *lp.Basis, prevRowStat map[modelKey]lp.BasisStatus, b *builder) {
	var consRow map[modelKey]int
	for k := range b.files {
		cols, rows, ok := b.crashRoute(k)
		if !ok {
			continue
		}
		// A file the previous basis already covers (same-slot retry) keeps
		// its mapped — optimal — statuses.
		if _, carried := prevRowStat[rows[0]]; carried {
			continue
		}
		if consRow == nil {
			consRow = make(map[modelKey]int)
			for i, rk := range b.rowKeys {
				if rk.kind == kindCons {
					consRow[rk] = i
				}
			}
		}
		// Flip pairs only if every pair is flippable, so the basic count
		// stays unchanged and the triangular-block argument covers the whole
		// route.
		flippable := true
		for i := range cols {
			ri, ok := consRow[rows[i]]
			if !ok || out.Status[out.NumVars+ri] != lp.BasisBasic || out.Status[cols[i]] == lp.BasisBasic {
				flippable = false
				break
			}
		}
		if !flippable {
			continue
		}
		for i := range cols {
			out.Status[cols[i]] = lp.BasisBasic
			out.Status[out.NumVars+consRow[rows[i]]] = lp.BasisAtLower
		}
	}
}

// crashRoute returns the crash route of file k as parallel column/row-key
// slices: one model column per route edge (shortest-hop path transfers,
// then destination holdovers up to the deadline layer) and the
// conservation-row key of that edge's tail node. ok is false when any
// needed column is absent from the model.
func (b *builder) crashRoute(k int) (cols []lp.VarID, rows []modelKey, ok bool) {
	f := b.files[k]
	path, ok := shortestHopPath(b.tg.Network(), f.Src, f.Dst)
	if !ok {
		return nil, nil, false
	}
	hops := len(path) - 1
	deadlineLayer := f.Release + f.Deadline
	if clamp := b.tg.Start() + b.tg.Horizon(); deadlineLayer > clamp {
		deadlineLayer = clamp
	}
	if f.Release+hops > deadlineLayer {
		return nil, nil, false
	}
	step := func(from, to netmodel.DC, slot int) bool {
		e, found := b.tg.EdgeAt(from, to, slot)
		if !found {
			return false
		}
		v := b.mvars[k][e.Index]
		if v < 0 {
			return false
		}
		cols = append(cols, v)
		rows = append(rows, modelKey{kind: kindCons, file: f.ID, from: from, to: -1, slot: slot})
		return true
	}
	for i := 0; i < hops; i++ {
		if !step(path[i], path[i+1], f.Release+i) {
			return nil, nil, false
		}
	}
	for s := f.Release + hops; s < deadlineLayer; s++ {
		if !step(f.Dst, f.Dst, s) {
			return nil, nil, false
		}
	}
	return cols, rows, true
}

// shortestHopPath returns a BFS shortest path from src to dst over the
// network's links, deterministic because neighbors are scanned in ascending
// datacenter order.
func shortestHopPath(nw *netmodel.Network, src, dst netmodel.DC) ([]netmodel.DC, bool) {
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
