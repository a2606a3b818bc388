package core

import (
	"maps"
	"slices"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
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
	// (Counters.PathFallbacks the subset settled by the volume master).
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
// re-optimizer shaved off the fast tier's provisional plans. FailedSolves
// counts re-optimizer solves that ended in an error, each settling its batch
// on the fast tier's plan. The metric tags name the daemon's
// postcard_admission_* series.
type AdmissionStats struct {
	Admits         int     `metric:"admits_total,Fast-path admissions."`
	Rejects        int     `metric:"rejects_total,Fast-path rejections."`
	Republishes    int     `metric:"republishes_total,Batches improved by the LP republisher."`
	FastCost       float64 `metric:"fast_cost_total,Provisional cost per slot committed by taken batches."`
	RepublishDelta float64 `metric:"republish_delta_total,Cost per slot shaved off provisional plans by republishing."`
	FailedSolves   int     `metric:"failed_solves_total,Republish solves that failed; their batches kept the fast-tier plan."`
}

// Solver is the incremental counterpart of Solve for online slot-by-slot
// use: consecutive calls against the same network reuse the time-expanded
// graph skeleton (rebased instead of rebuilt) and warm-start each LP from
// the previous slot's optimal basis, translated across models by structural
// keys (charged-volume columns per link, capacity/charge rows per edge-slot,
// per-file columns and conservation rows by file identity). A fresh
// Solver's first solve is the stateless Solve.
//
// The cache is advisory only: a mapped basis the simplex cannot use is
// silently discarded for a cold start, so every solve reaches the same LP
// status and optimal objective as Solve on the same ledger. The plan may
// be a different vertex of the same optimal face, and because each
// committed plan shapes every later slot's ledger, whole-run costs of a
// warm and a cold run can differ (CI-scale Fig. 5: 1136.12 warm against
// 1134.44 cold; see DESIGN.md §2).
//
// A slot may be solved more than once: the simulation engine re-solves an
// infeasible slot with fewer files, and the admission daemon re-solves its
// open batch as transfers join it. A re-solve of files the last solve all
// had starts from that solve's basis. A batch with a file the last solve
// lacked starts from the state the slot opened with, the previous slot's
// last solve, so its plan never depends on which smaller batches happened
// to be solved before it.
//
// The cache automatically resets whenever the ledger's network changes
// identity or the solve slot is neither the cached slot nor its immediate
// successor. A Solver is not safe for concurrent use; parallel drivers
// must give each goroutine its own instance.
type Solver struct {
	conf Config

	nw    *netmodel.Network
	prevT int
	valid bool
	tg    *timegraph.Graph
	// last is the resting state of the last solve, and start the one slot
	// prevT opened with (the last solve of an earlier slot).
	last, start solveState
	// bld is the recycled LP builder: every solve reuses its previous
	// model's backing allocations, so steady-state iteration assembles each
	// slot's LP with almost no garbage. pbld is its PricingPath
	// counterpart, recycling the path master's model, registries, arenas
	// and per-worker PathFinder state across slots.
	bld  *builder
	pbld *pathBuilder

	// colStat and rowStat are startBasis' lookup tables from the cached
	// basis's structural keys to their statuses, cleared and refilled on
	// every warm solve rather than rebuilt.
	colStat map[modelKey]lp.BasisStatus
	rowStat map[modelKey]lp.BasisStatus

	stats SolveStats
}

// solveState is the resting state of one solve: its final basis with the
// structural keys of the basis's columns and rows, and the IDs of the files
// it solved. paths holds, per (src, dst) pair, the node sequences of the
// path columns active in the last path master's optimum (a solve settled by
// the volume master keeps the previous ones). The next path master
// re-materializes them (shifted to each new file's release layer) before
// its first pricing round, so the restricted master starts from proven
// routes instead of artificials alone.
type solveState struct {
	basis *lp.Basis
	cols  []modelKey
	rows  []modelKey
	files []int
	paths map[netmodel.Link][][]netmodel.DC
}

// copyFrom makes st a copy of src, reusing st's key buffers. The basis is
// shared: a cached basis is never modified.
func (st *solveState) copyFrom(src *solveState) {
	st.basis = src.basis
	st.cols = append(st.cols[:0], src.cols...)
	st.rows = append(st.rows[:0], src.rows...)
	st.files = append(st.files[:0], src.files...)
	if st.paths == nil {
		st.paths = make(map[netmodel.Link][][]netmodel.DC)
	}
	clear(st.paths)
	maps.Copy(st.paths, src.paths)
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
	// Retained paths name datacenters of the old network; a different
	// network invalidates them wholesale.
	s.last = solveState{}
	s.start = solveState{}
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
	if s.valid && t != s.prevT {
		// Slot t opens with the previous slot's final state; the keys use
		// absolute slots, so it stays valid.
		s.start.copyFrom(&s.last)
		s.prevT = t
	}
	if len(files) == 0 {
		// No model to solve.
		return &Result{
			Schedule:    &schedule.Schedule{},
			CostPerSlot: ledger.CostPerSlot(),
			Status:      lp.Optimal,
		}, nil
	}
	horizon, err := netmodel.CheckBatch(nw, files, t)
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
	basis, warm := s.startBasis(files, b.colKeys, b.rowKeys, b.crashNewFiles)
	res, sol, err := b.solve(&lp.Options{InitialBasis: basis})
	if err != nil {
		return nil, err
	}
	// WarmStarted is a statement about solver state carried across solves,
	// not about the synthesized crash basis: a crash-started solve is still
	// a cold solve to every observer of these counters.
	res.WarmStarted = res.WarmStarted && warm
	s.record(res)
	s.cache(t, files, sol, &b.colKeys, &b.rowKeys)
	return res, nil
}

// solvePath is the PricingPath branch of Solve: the Dantzig–Wolfe path
// master, warm-started from the previous slot's basis through the same
// structural-key translation the arc branch uses (demand rows and path
// columns carry file identity and a path hash, so same-slot shedding
// retries reuse the surviving files' resting states wholesale). A master
// that cannot serve every file is settled by the volume master
// (pathBuilder.settle); the cache keeps this first master's basis and keys
// and the previous slot's paths either way.
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
	recycled, err := seedRetainedPaths(pb, s.from(files).paths)
	if err != nil {
		return nil, err
	}
	basis, warm := s.startBasis(files, pb.colKeys, pb.rowKeys, pb.crashNewFiles)
	res, sol, unsettled, err := pb.solve(&lp.Options{InitialBasis: basis})
	if err != nil {
		return nil, err
	}
	res.WarmStarted = res.WarmStarted && warm
	if unsettled {
		if res, err = pb.settle(res); err != nil {
			return nil, err
		}
	} else {
		s.harvestPaths(pb, sol)
	}
	res.PathRecycled = recycled
	s.record(res)
	s.stats.PathSolves++
	s.cache(t, files, sol, &pb.colKeys, &pb.rowKeys)
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
	if s.last.paths == nil {
		s.last.paths = make(map[netmodel.Link][][]netmodel.DC)
	}
	clear(s.last.paths)
	for _, c := range pb.cols {
		if sol.Value(c.v) <= tol {
			continue
		}
		f := pb.files[c.file]
		key := netmodel.Link{From: f.Src, To: f.Dst}
		if len(s.last.paths[key]) >= maxRetainedPaths {
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
		for _, p := range s.last.paths[key] {
			if dcSeqEqual(p, nodes) {
				dup = true
				break
			}
		}
		if !dup {
			s.last.paths[key] = append(s.last.paths[key], nodes)
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
// reachability window, and grafted via the same materializePath the
// pricing oracle uses — so duplicates the oracle would regenerate are
// dropped and all lazily created rows follow the ordinary path. It returns
// the number of columns actually added. Like the oracle's, a seeded path
// ends at the file's deadline layer: trailing destination holds that
// overrun a shorter deadline are trimmed, and a path that arrives sooner is
// skipped, since it would deliver the file without holding it there until
// the deadline.
func seedRetainedPaths(pb *pathBuilder, retain map[netmodel.Link][][]netmodel.DC) (int, error) {
	if len(retain) == 0 {
		return 0, nil
	}
	horizon := pb.tg.Start() + pb.tg.Horizon()
	var edges []int32
	recycled := 0
	for k, f := range pb.files {
		paths := retain[netmodel.Link{From: f.Src, To: f.Dst}]
		if len(paths) == 0 {
			continue
		}
		r := pb.reach[k]
		for _, nodes := range paths {
			nsteps := len(nodes) - 1
			for nsteps > f.Deadline && nodes[nsteps] == f.Dst && nodes[nsteps-1] == f.Dst {
				nsteps--
			}
			if nsteps != f.Deadline || f.Release+nsteps > horizon {
				continue
			}
			edges = edges[:0]
			usable := true
			for i := 0; i < nsteps; i++ {
				from, to := nodes[i], nodes[i+1]
				slot := f.Release + i
				e, found := pb.tg.EdgeAt(from, to, slot)
				if !found || !pb.conf.Storage.Permits(f, &e) || !r.EdgeAllowed(f, e) {
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
// slot with a subset of the files. The cache takes the builder's key
// slices and hands it the ones it held to build the next model into.
func (s *Solver) cache(t int, files []netmodel.File, sol *lp.Solution, colKeys, rowKeys *[]modelKey) {
	s.prevT = t
	s.valid = true
	s.last.files = s.last.files[:0]
	for _, f := range files {
		s.last.files = append(s.last.files, f.ID)
	}
	if sol.Basis != nil {
		s.last.basis = sol.Basis
		s.last.cols, *colKeys = *colKeys, s.last.cols[:0]
		s.last.rows, *rowKeys = *rowKeys, s.last.rows[:0]
	} else {
		s.last.basis = nil
		s.last.cols = nil
		s.last.rows = nil
	}
}

// from returns the cached state a solve of files maps its basis from: the
// last solve's when it had every one of them, else the state the slot
// opened with (see Solver).
func (s *Solver) from(files []netmodel.File) *solveState {
	for _, f := range files {
		if !slices.Contains(s.last.files, f.ID) {
			return &s.start
		}
	}
	return &s.last
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

// startBasis returns the basis a solve of files on a model with the given
// structural keys starts from: the cached state from names, translated
// by key, or with no usable state the crash basis. warm reports a
// translation. crash is the formulation's crashNewFiles.
func (s *Solver) startBasis(files []netmodel.File, cols, rows []modelKey, crash func(*lp.Basis, map[modelKey]lp.BasisStatus)) (basis *lp.Basis, warm bool) {
	src := s.from(files)
	prev := src.basis
	if !s.valid || prev == nil || prev.NumVars != len(src.cols) || prev.NumRows != len(src.rows) ||
		len(prev.Status) != prev.NumVars+prev.NumRows {
		return mappedBasis(cols, rows, nil, nil, crash), false
	}
	if s.colStat == nil {
		s.colStat = make(map[modelKey]lp.BasisStatus, len(src.cols))
		s.rowStat = make(map[modelKey]lp.BasisStatus, len(src.rows))
	}
	clear(s.colStat)
	clear(s.rowStat)
	for j, k := range src.cols {
		s.colStat[k] = prev.Status[j]
	}
	for i, k := range src.rows {
		s.rowStat[k] = prev.Status[prev.NumVars+i]
	}
	return mappedBasis(cols, rows, s.colStat, s.rowStat, crash), true
}

// mappedBasis builds the starting basis of a model with the given
// structural keys: a column or row whose key colStat or rowStat holds
// carries that status over, the rest take the cold default (columns at
// their lower bound, logicals basic). crash then makes basic the crash
// routes of the files rowStat does not cover — with nil tables, of every
// file: the crash basis of a from-scratch solve. The basic count is
// normalized to what the warm-start path requires; any residual rank
// deficiency is left to the LU factorization's singularity repair. Only map
// lookups are used — never map iteration — so the result is
// bit-deterministic.
func mappedBasis(cols, rows []modelKey, colStat, rowStat map[modelKey]lp.BasisStatus, crash func(*lp.Basis, map[modelKey]lp.BasisStatus)) *lp.Basis {
	nv, nr := len(cols), len(rows)
	out := &lp.Basis{NumVars: nv, NumRows: nr, Status: make([]lp.BasisStatus, nv+nr)}
	for j, k := range cols {
		st, ok := colStat[k]
		if !ok {
			st = lp.BasisAtLower
		}
		out.Status[j] = st
	}
	for i, k := range rows {
		st, ok := rowStat[k]
		if !ok {
			st = lp.BasisBasic
		}
		out.Status[nv+i] = st
	}
	crash(out, rowStat)
	return out.Normalize()
}

// crashNewFiles upgrades the mapped basis for files the previous model did
// not contain (on consecutive-slot and from-scratch solves that is all of
// them; on same-slot shedding retries, none). The cold default rests every such file's flow
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
func (b *builder) crashNewFiles(out *lp.Basis, prevRowStat map[modelKey]lp.BasisStatus) {
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

// crashRoute returns the crash route of file k (b.crashPath[k], computed by
// build) as parallel column/row-key slices: one model column per route edge
// (shortest-hop path transfers, then destination holdovers up to the
// deadline layer) and the conservation-row key of that edge's tail node. ok
// is false when the file has no crash route or any needed column is absent
// from the model.
func (b *builder) crashRoute(k int) (cols []lp.VarID, rows []modelKey, ok bool) {
	path := b.crashPath[k]
	if path == nil {
		return nil, nil, false
	}
	f := b.files[k]
	hops := len(path) - 1
	deadlineLayer := b.deadlineLayer(f)
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
// network's links, read back through netmodel.Hops' search tree.
func shortestHopPath(nw *netmodel.Network, src, dst netmodel.DC) ([]netmodel.DC, bool) {
	dist, prev := nw.Hops(src, false)
	if dist[dst] == netmodel.Unreachable {
		return nil, false
	}
	path := make([]netmodel.DC, dist[dst]+1)
	for i, d := len(path)-1, dst; i >= 0; i, d = i-1, prev[d] {
		path[i] = d
	}
	return path, true
}
