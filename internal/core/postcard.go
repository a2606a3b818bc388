// Package core implements the Postcard optimizer — the paper's primary
// contribution. At a slot t, given the files generated at t and a charging
// ledger describing everything already committed to the network, it builds
// the linear program of Sec. V on the time-expanded graph (objective (6),
// constraints (7)-(10), with the pairwise-max charged volume linearized via
// one epigraph variable per link) and extracts an optimal routing and
// scheduling plan, including store-and-forward holdovers at intermediate
// datacenters.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/timegraph"
)

// StoragePolicy controls which datacenters may hold data between slots —
// the store-and-forward capability the paper studies. The zero value is
// StorageEverywhere. It is timegraph's type: the policy decides which
// storage edges of the time-expanded graph a file's paths may use.
type StoragePolicy = timegraph.StoragePolicy

// Storage policies (see timegraph.StoragePolicy).
const (
	StorageEverywhere    = timegraph.StorageEverywhere
	StorageEndpointsOnly = timegraph.StorageEndpointsOnly
	StorageNone          = timegraph.StorageNone
)

// Config tunes the optimizer. The zero value selects defaults.
type Config struct {
	// Storage selects where holdovers are permitted.
	Storage StoragePolicy
	// DisableColGen materializes the entire pruned variable universe up
	// front instead of starting from a restricted master (crash-route and
	// storage columns) and generating the remaining columns on demand.
	// Delayed column generation is exact — it terminates at the same
	// optimum as the full model — so this switch exists for equivalence
	// gates, fuzzing, and A/B benchmarks, not for correctness.
	DisableColGen bool
	// DisablePruning instantiates per-file variables and conservation rows
	// even at (datacenter, layer) pairs that deadline reachability proves
	// useless (dist(src, i) > elapsed or dist(j, dst) > remaining).
	// Pruning is lossless — such a variable can never carry flow on a
	// feasible source-to-destination path — so this switch likewise exists
	// only for equivalence testing.
	DisablePruning bool
	// Pricing selects the formulation: the per-arc model (default) or the
	// Dantzig–Wolfe path master for 100+ DC overlays. Both are exact; see
	// PricingMode. DisableColGen has no effect under PricingPath, whose
	// column universe is implicit.
	Pricing PricingMode
	// pricingWorkers caps the goroutines pricing per-file path subproblems
	// concurrently under PricingPath; <= 0 selects GOMAXPROCS, capped by the
	// file count. Results are bit-identical for every worker count, which
	// only this package's tests vary.
	pricingWorkers int
}

// orZero returns a copy of *c, or the zero Config when c is nil.
func (c *Config) orZero() Config {
	if c == nil {
		return Config{}
	}
	return *c
}

// Result is the outcome of one Postcard optimization.
type Result struct {
	// Schedule is the optimal plan, nil when Status != lp.Optimal.
	Schedule *schedule.Schedule
	// CostPerSlot is sum over links of price * charged volume after the
	// plan is committed — the paper's objective divided by the charging
	// period length.
	CostPerSlot float64
	// Status is the LP outcome (Optimal, or Infeasible when the files
	// cannot all meet their deadlines under residual capacity).
	Status lp.Status
	// Variables and Constraints describe the solved LP.
	Variables   int
	Constraints int
	// WarmStarted reports whether the LP accepted a warm-start basis
	// (always false for the stateless Solve; see Solver).
	WarmStarted bool
	// BackendWorkers is always 1 on a Result from an LP solve: the simplex
	// runs its kernels on the calling goroutine. It survives the removal of
	// the selectable LP compute backends only because the benchmark reports
	// it as lp.backend_workers; drop it together with that metric.
	BackendWorkers int

	// Counters is the work this solve performed.
	Counters
}

// Counters declares the optimizer's work counters: the LP's (lp.Work) plus
// what core does around the LP. It is embedded in Result, where it counts
// one solve, and in SolveStats, where it totals many; internal/telemetry
// sums, differences and exports it without naming a field, so adding a
// counter is one tagged field here (or in lp.Work) plus its increment.
type Counters struct {
	lp.Work
	// VarUniverse is the number of per-file transfer/holdover columns in
	// the pruned universe — what a full (non-column-generated) model would
	// materialize. Result.Variables reports how many columns actually exist
	// after the solve; the difference is the column-generation saving.
	VarUniverse int `metric:"var_universe_total,Variables in the pre-pruning universes."`
	// PrunedVars and PrunedRows count the variables and conservation rows
	// that deadline-reachability pruning removed from the model before it
	// was ever assembled (zero under Config.DisablePruning, and zero on
	// complete overlays, where every datacenter is one hop from every
	// other).
	PrunedVars int `metric:"pruned_vars_total,Variables removed by deadline-reachability pruning."`
	PrunedRows int `metric:"pruned_rows_total,Rows removed by deadline-reachability pruning."`
	// PathRecycled counts path columns seeded into the restricted master
	// because they were active in the previous slot's optimum (the warm
	// Solver's cross-slot column recycling; always zero under PricingArc and
	// for stateless solves).
	PathRecycled int `metric:"path_recycled_total,Path columns recycled from earlier slots' optimal bases."`
	// PathFallbacks counts path-master solves that terminated with positive
	// artificials (the generated paths could not serve every file), so the
	// reported result was settled by the volume master; always zero under
	// PricingArc.
	PathFallbacks int `metric:"path_fallbacks_total,Path-master solves settled by the volume master."`
}

// UnroutableError reports files whose destination is structurally
// unreachable within their deadline (no capacity consideration at all).
type UnroutableError struct {
	FileIDs []int
}

// Error implements error.
func (e *UnroutableError) Error() string {
	ids := make([]string, len(e.FileIDs))
	for i, id := range e.FileIDs {
		ids[i] = fmt.Sprintf("%d", id)
	}
	return fmt.Sprintf("core: files [%s] cannot reach their destinations within their deadlines", strings.Join(ids, " "))
}

// Solve computes the optimal Postcard plan for the given files at slot t.
// Every file must satisfy Release >= t. The ledger supplies residual
// capacities and the already-charged volume floor X_ij(t-1); it is not
// modified (callers apply the returned schedule explicitly). Solve is
// stateless: it is a fresh Solver's first solve, which builds the
// time-expanded graph and LP from scratch and starts the simplex from the
// crash basis. Online slot-by-slot callers should keep a Solver instead,
// which reuses the graph skeleton and warm-starts consecutive solves from
// each other's bases.
func Solve(ledger *netmodel.Ledger, files []netmodel.File, t int, cfg *Config) (*Result, error) {
	return NewSolver(cfg).Solve(ledger, files, t)
}

// prepare runs the structural routability check and assembles the Postcard
// LP on the given time-expanded graph. The graph's horizon may exceed the
// files' needs (a Solver reuses one skeleton across slots); surplus layers
// contribute no variables or rows, so the assembled model is identical to
// one built on a tight graph.
func prepare(tg *timegraph.Graph, ledger *netmodel.Ledger, files []netmodel.File, conf Config, recycle *builder) (*builder, error) {
	reach, err := routability(tg, files, conf)
	if err != nil {
		return nil, err
	}
	b := newBuilder(recycle, tg, ledger, files, reach, conf)
	if err := b.build(); err != nil {
		return nil, err
	}
	return b, nil
}

// routability runs the structural routability check shared by both
// formulations and returns the per-file reachability tables the model
// construction prunes against (permissive ones under DisablePruning — the
// check itself always uses the true hop distances, so every configuration
// rejects exactly the same inputs).
func routability(tg *timegraph.Graph, files []netmodel.File, conf Config) ([]timegraph.Reachability, error) {
	reach := make([]timegraph.Reachability, len(files))
	var unroutable []int
	for k, f := range files {
		reach[k] = tg.FileReachability(f)
		if reach[k].FromSrc[f.Dst] > f.Deadline {
			unroutable = append(unroutable, f.ID)
		}
	}
	if len(unroutable) > 0 {
		sort.Ints(unroutable)
		return nil, &UnroutableError{FileIDs: unroutable}
	}
	if conf.DisablePruning {
		perm := timegraph.Permissive(tg.Network().NumDCs())
		for k := range reach {
			reach[k] = perm
		}
	}
	return reach, nil
}

// solve runs the assembled LP by column generation with the given solver
// options and converts the outcome into a Result. With no delayed columns
// (DisableColGen, or a universe the restriction covers) SolvePriced solves
// the model directly. The raw lp.Solution is returned alongside so the
// incremental Solver can harvest its basis snapshot.
func (b *builder) solve(opts *lp.Options) (*Result, *lp.Solution, error) {
	sol, err := lp.SolvePriced(b.model, b, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: solving Postcard LP: %w", err)
	}
	res, err := b.result(sol, b.model, Counters{
		Work:        sol.Work,
		VarUniverse: b.varUniverse,
		PrunedVars:  b.prunedVars,
		PrunedRows:  b.prunedRows,
	}, b)
	if err != nil {
		return nil, nil, err
	}
	return res, sol, nil
}

// instance is what one solve plans: the files, the time-expanded graph and
// ledger they are planned against, their reachability tables and the
// configuration. Both formulations' builders embed it.
type instance struct {
	tg     *timegraph.Graph
	ledger *netmodel.Ledger
	files  []netmodel.File
	reach  []timegraph.Reachability
	conf   Config
}

// universe walks file k's arc universe — the single definition every
// consumer of the (file, edge) pairs shares: each edge of the file's window
// (constraint (10)) the storage policy permits, in index order, with
// allowed reporting whether reachability keeps it (false: pruned at one of
// its endpoints).
func (in *instance) universe(k int, fn func(e timegraph.Edge, allowed bool)) error {
	f, r := in.files[k], in.reach[k]
	if !in.tg.WindowEdges(f, func(e timegraph.Edge) {
		if in.conf.Storage.Permits(f, &e) {
			fn(e, r.EdgeAllowed(f, e))
		}
	}) {
		return fmt.Errorf("core: file %d outside graph horizon", f.ID)
	}
	return nil
}

// planner extracts a plan and its cost from an optimal solution of one
// formulation's model.
type planner interface {
	extractSchedule(sol *lp.Solution) *schedule.Schedule
	chargedCost(sol *lp.Solution) float64
}

// result is the solve epilogue both formulations share. It reports the
// outcome of sol on model m with the given counters and, when sol is
// optimal and p is non-nil, the plan p extracts and its cost. Every plan is
// verified against the files and the ledger's residual capacities before
// it is returned, so an optimizer bug surfaces as an error, never as a plan.
func (in *instance) result(sol *lp.Solution, m *lp.Model, c Counters, p planner) (*Result, error) {
	res := &Result{
		Status:         sol.Status,
		Variables:      m.NumVariables(),
		Constraints:    m.NumConstraints(),
		WarmStarted:    sol.WarmStarted,
		BackendWorkers: 1,
		Counters:       c,
	}
	if sol.Status != lp.Optimal || p == nil {
		return res, nil
	}
	res.Schedule = p.extractSchedule(sol)
	res.CostPerSlot = p.chargedCost(sol)
	if err := in.verify(res.Schedule, in.files); err != nil {
		return nil, err
	}
	return res, nil
}

// verify checks plan s for files against the network and the ledger's
// residual capacities.
func (in *instance) verify(s *schedule.Schedule, files []netmodel.File) error {
	vc := schedule.VerifyConfig{
		Residual: func(i, j netmodel.DC, slot int) float64 { return in.ledger.Residual(i, j, slot) },
		Tol:      1e-4, // GB; matches LP tolerance noise on multi-GB files
	}
	if err := schedule.Verify(s, in.tg.Network(), files, vc); err != nil {
		return fmt.Errorf("core: optimizer produced an invalid schedule: %w", err)
	}
	return nil
}

// modelKey identifies one LP column or row of a Postcard model
// structurally, independent of the model it appears in. Keys let the
// incremental Solver translate a basis snapshot taken on one slot's model
// onto the next slot's model: positions whose keys match carry their resting
// status over, everything else falls back to a safe default. Slots and
// layers are absolute, so a key minted at slot t still names the same
// physical quantity at slot t+1.
type modelKey struct {
	kind int8
	file int         // file ID for kindM/kindCons, -1 otherwise
	from netmodel.DC // link tail, or the datacenter for kindCons
	to   netmodel.DC // link head, -1 for kindCons
	slot int         // absolute slot (edges) or layer (kindCons), -1 for kindX
}

// modelKey kinds.
const (
	kindX      int8 = iota + 1 // charged-volume epigraph column of one link
	kindM                      // per-file edge column
	kindCap                    // capacity row of one transfer edge
	kindCharge                 // charge (epigraph) row of one transfer edge
	kindCons                   // conservation row of one (file, dc, layer)
	kindDemand                 // path master: convexity (demand) row of one file
	kindArt                    // path master: big-M artificial column of one file
	kindPath                   // path master: one path column (slot holds the path hash)
	kindBudget                 // Sec. VI path master: MaxUnderBudget's budget row
	kindLambda                 // flow path master: the concurrent phase's λ column
)

// varDelayed marks a (file, edge) pair that belongs to the pruned variable
// universe but has not been materialized into the restricted master yet;
// column generation turns it into a real variable if it ever prices out
// attractive. Distinct from -1 ("not in the universe at all").
const varDelayed lp.VarID = -2

// delayedCol addresses one uninstantiated column of the universe.
type delayedCol struct {
	file int32 // index into builder.files
	edge int32 // edge index in the time-expanded graph
}

// builder assembles the Postcard LP. It implements lp.PricingOracle over
// the delayed transfer columns.
type builder struct {
	instance

	model *lp.Model
	// mvars[k] maps edge index -> variable; -1 when the file cannot use the
	// edge, varDelayed when the column exists in the universe but is not
	// materialized.
	mvars [][]lp.VarID
	// xvars maps link -> epigraph variable for the charged volume.
	xvars map[netmodel.Link]lp.VarID
	// colKeys[j] / rowKeys[i] are the structural identities of column j and
	// row i, recorded in the exact AddVariable/AddConstraint order
	// (generated columns append in materialization order).
	colKeys []modelKey
	rowKeys []modelKey

	// Row registries for implicit column pricing: capRow/chargeRow map edge
	// index -> row (-1 when absent); consRow[k] maps (layer-first)*n+dc of
	// file k's window to its conservation row. Rows are emitted from
	// universe support, so every delayed column's four rows exist before
	// the first solve.
	capRow    []lp.ConID
	chargeRow []lp.ConID
	consRow   [][]lp.ConID
	consFirst []int
	// delayed lists the uninstantiated universe in deterministic
	// (file, edge-index) order.
	delayed []delayedCol
	// crashPath[k] is file k's crash route, the BFS shortest-hop path it
	// ships along immediately at release (nil when that path cannot reach
	// the destination by the file's deadline layer). crashEdge marks, per
	// build of one file, the transfer edges of that route (materialized
	// eagerly so the crash basis works on the restricted master).
	crashPath [][]netmodel.DC
	crashEdge []bool
	// rowIdx/rowVal are the constraint-assembly scratch; colCons is the
	// four-row support scratch of materialize, and cands a pricing round's
	// attractive delayed columns.
	rowIdx  []lp.VarID
	rowVal  []float64
	colCons [4]lp.ConID
	cands   []pricedCol

	varUniverse int
	prunedVars  int
	prunedRows  int
}

// newBuilder prepares a builder for one LP construction. A non-nil recycle
// builder donates every backing allocation of its previous build (model
// rows and columns, variable maps, key and registry slices), so incremental
// per-slot solvers assemble each slot's LP with almost no garbage; pass nil
// for a one-shot build.
func newBuilder(recycle *builder, tg *timegraph.Graph, ledger *netmodel.Ledger, files []netmodel.File, reach []timegraph.Reachability, conf Config) *builder {
	b := recycle
	if b == nil {
		b = &builder{
			model: lp.NewModel(),
			xvars: make(map[netmodel.Link]lp.VarID),
		}
	} else {
		b.model.Reset()
		clear(b.xvars)
		b.colKeys = b.colKeys[:0]
		b.rowKeys = b.rowKeys[:0]
		b.delayed = b.delayed[:0]
	}
	b.instance = instance{tg: tg, ledger: ledger, files: files, reach: reach, conf: conf}
	b.varUniverse, b.prunedVars, b.prunedRows = 0, 0, 0
	return b
}

// intSlice returns s resized to n, reusing its backing array when possible.
func intSlice[T lp.VarID | lp.ConID | int | int32 | bool | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// addMVar materializes the column of file k on edge e.
func (b *builder) addMVar(k int, e timegraph.Edge) lp.VarID {
	f := b.files[k]
	obj := 0.0
	if !e.Storage {
		obj = netmodel.Epsilon
	}
	v := b.model.AddVariable(0, f.Size, obj, "")
	b.mvars[k][e.Index] = v
	b.colKeys = append(b.colKeys, modelKey{kind: kindM, file: f.ID, from: e.From, to: e.To, slot: e.Slot})
	return v
}

func (b *builder) build() error {
	nw := b.tg.Network()
	pinf := math.Inf(1)
	// Charged-volume epigraph variables, one per priced link, floored at
	// the volume already charged (the running X_ij(t-1) plus committed
	// future peaks).
	nw.Links(func(l netmodel.Link, price, _ float64) {
		b.xvars[l] = b.model.AddVariable(b.ledger.ChargedVolume(l.From, l.To), pinf, price, "")
		b.colKeys = append(b.colKeys, modelKey{kind: kindX, file: -1, from: l.From, to: l.To, slot: -1})
	})
	// Per-file transfer/holdover universe over the file's pruned subgraph.
	// The restricted master materializes storage arcs and each file's crash
	// route immediately; remaining transfer columns stay delayed and enter
	// by column generation (all of them at once under DisableColGen).
	if cap(b.mvars) < len(b.files) {
		b.mvars = make([][]lp.VarID, len(b.files))
	} else {
		b.mvars = b.mvars[:len(b.files)]
	}
	if cap(b.crashPath) < len(b.files) {
		b.crashPath = make([][]netmodel.DC, len(b.files))
	} else {
		b.crashPath = b.crashPath[:len(b.files)]
	}
	b.crashEdge = intSlice(b.crashEdge, b.tg.NumEdges())
	for k := range b.files {
		b.mvars[k] = intSlice(b.mvars[k], b.tg.NumEdges())
		for i := range b.mvars[k] {
			b.mvars[k][i] = -1
		}
		b.markCrashRoute(k)
		err := b.universe(k, func(e timegraph.Edge, allowed bool) {
			if !allowed {
				b.prunedVars++
				return
			}
			b.varUniverse++
			if b.conf.DisableColGen || e.Storage || b.crashEdge[e.Index] {
				b.addMVar(k, e)
				return
			}
			b.mvars[k][e.Index] = varDelayed
			b.delayed = append(b.delayed, delayedCol{file: int32(k), edge: int32(e.Index)})
		})
		if err != nil {
			return err
		}
	}
	if err := b.addCapacityAndCharge(); err != nil {
		return err
	}
	return b.addConservation()
}

// markCrashRoute computes file k's crash route into b.crashPath[k] (the one
// BFS per file per build; crashRoute reads it back) and flags its transfer
// edges in b.crashEdge. These columns are materialized eagerly so the crash
// basis can make the route basic on the restricted master; the destination
// holdovers it also needs are storage arcs, which are always materialized.
// Flags from the previous file are cleared first.
func (b *builder) markCrashRoute(k int) {
	clear(b.crashEdge)
	b.crashPath[k] = nil
	f := b.files[k]
	path, ok := shortestHopPath(b.tg.Network(), f.Src, f.Dst)
	if !ok || f.Release+len(path)-1 > b.deadlineLayer(f) {
		return
	}
	b.crashPath[k] = path
	for i := 0; i+1 < len(path); i++ {
		if e, found := b.tg.EdgeAt(path[i], path[i+1], f.Release+i); found {
			b.crashEdge[e.Index] = true
		}
	}
}

// deadlineLayer is the last layer of file f's window on the builder's
// graph: its deadline, clamped to the graph's horizon.
func (b *builder) deadlineLayer(f netmodel.File) int {
	return min(f.Release+f.Deadline, b.tg.Start()+b.tg.Horizon())
}

// addCapacityAndCharge emits constraint (7) (per-edge capacity against the
// residual ledger) and the epigraph rows linearizing the charged volume:
// X_ij >= committed(i,j,n) + sum_k M_ijn for every slot n with variables.
// Rows exist wherever the variable UNIVERSE has support — materialized or
// delayed — so the restricted master has exactly the full model's rows and
// generated columns only ever append coefficients to rows already present.
// Coefficients are of course emitted only for materialized columns.
func (b *builder) addCapacityAndCharge() error {
	ne := b.tg.NumEdges()
	b.capRow = intSlice(b.capRow, ne)
	b.chargeRow = intSlice(b.chargeRow, ne)
	for i := 0; i < ne; i++ {
		b.capRow[i], b.chargeRow[i] = -1, -1
	}
	errOut := error(nil)
	b.tg.Edges(func(e timegraph.Edge) {
		if errOut != nil || e.Storage {
			return
		}
		b.rowIdx = b.rowIdx[:0]
		b.rowVal = b.rowVal[:0]
		universe := 0
		for k := range b.files {
			v := b.mvars[k][e.Index]
			if v == -1 {
				continue
			}
			universe++
			if v >= 0 {
				b.rowIdx = append(b.rowIdx, v)
				b.rowVal = append(b.rowVal, 1)
			}
		}
		if universe == 0 {
			return
		}
		residual := b.ledger.Residual(e.From, e.To, e.Slot)
		capID, err := b.model.AddConstraint(lp.LE, residual, b.rowIdx, b.rowVal)
		if err != nil {
			errOut = err
			return
		}
		// Reserve the full universe support so materialized delayed columns
		// append into place without reallocating the row.
		b.model.ReserveRow(capID, universe)
		b.capRow[e.Index] = capID
		b.rowKeys = append(b.rowKeys, modelKey{kind: kindCap, file: -1, from: e.From, to: e.To, slot: e.Slot})
		// Charge row: sum_k M - X <= -committedVolume.
		committed := b.ledger.VolumeAt(e.From, e.To, e.Slot)
		x := b.xvars[netmodel.Link{From: e.From, To: e.To}]
		b.rowIdx = append(b.rowIdx, x)
		b.rowVal = append(b.rowVal, -1)
		chargeID, err := b.model.AddConstraint(lp.LE, -committed, b.rowIdx, b.rowVal)
		if err != nil {
			errOut = err
			return
		}
		b.model.ReserveRow(chargeID, universe+1)
		b.chargeRow[e.Index] = chargeID
		b.rowKeys = append(b.rowKeys, modelKey{kind: kindCharge, file: -1, from: e.From, to: e.To, slot: e.Slot})
	})
	return errOut
}

// addConservation emits constraints (8): per file, flow out of the source
// at its release layer equals the size, flow into the destination at the
// deadline layer equals the size, and inflow equals outflow at every other
// (datacenter, layer) of the file's subgraph. Like the edge rows, a
// conservation row exists wherever the variable universe has support, and
// its handle is recorded in consRow so delayed columns can price against
// it; (datacenter, layer) pairs reachability disproves are counted in
// prunedRows instead of emitted.
func (b *builder) addConservation() error {
	nw := b.tg.Network()
	n := nw.NumDCs()
	if cap(b.consRow) < len(b.files) {
		b.consRow = make([][]lp.ConID, len(b.files))
	} else {
		b.consRow = b.consRow[:len(b.files)]
	}
	b.consFirst = intSlice(b.consFirst, len(b.files))
	for k, f := range b.files {
		first, last, _ := b.tg.FileWindow(f)
		r := b.reach[k]
		deadlineLayer := b.deadlineLayer(f)
		b.consFirst[k] = first
		b.consRow[k] = intSlice(b.consRow[k], (deadlineLayer-first+1)*n)
		for i := range b.consRow[k] {
			b.consRow[k][i] = -1
		}
		for layer := first; layer <= deadlineLayer; layer++ {
			for dc := 0; dc < n; dc++ {
				d := netmodel.DC(dc)
				if !r.Allowed(f, d, layer) {
					b.prunedRows++
					continue
				}
				b.rowIdx = b.rowIdx[:0]
				b.rowVal = b.rowVal[:0]
				universe := 0
				scan := func(e timegraph.Edge, ok bool, coef float64) {
					if !ok {
						return
					}
					v := b.mvars[k][e.Index]
					if v == -1 {
						return
					}
					universe++
					if v >= 0 {
						b.rowIdx = append(b.rowIdx, v)
						b.rowVal = append(b.rowVal, coef)
					}
				}
				// Outflow during slot == layer (absent at the final layer).
				if layer <= last {
					for to := 0; to < n; to++ {
						e, ok := b.tg.EdgeAt(d, netmodel.DC(to), layer)
						scan(e, ok, 1)
					}
				}
				// Inflow during slot == layer-1 (absent at the first layer).
				if layer > first {
					for from := 0; from < n; from++ {
						e, ok := b.tg.EdgeAt(netmodel.DC(from), d, layer-1)
						scan(e, ok, -1)
					}
				}
				rhs := 0.0
				switch {
				case layer == f.Release && d == f.Src:
					rhs = f.Size // all data leaves the source copy
				case layer == deadlineLayer && d == f.Dst:
					rhs = -f.Size // all data has arrived
				}
				if universe == 0 {
					if rhs != 0 {
						return fmt.Errorf("core: file %d has no variables to satisfy its %s constraint",
							f.ID, map[bool]string{true: "source", false: "destination"}[rhs > 0])
					}
					continue
				}
				row, err := b.model.AddConstraint(lp.EQ, rhs, b.rowIdx, b.rowVal)
				if err != nil {
					return err
				}
				b.model.ReserveRow(row, universe)
				b.consRow[k][(layer-first)*n+dc] = row
				b.rowKeys = append(b.rowKeys, modelKey{kind: kindCons, file: f.ID, from: d, to: -1, slot: layer})
			}
		}
	}
	return nil
}

// colGenBatch bounds how many attractive delayed columns one pricing round
// materializes. Batching keeps the restricted master small when the first
// duals make large swaths of the universe look attractive; the most
// negative reduced costs enter first.
const colGenBatch = 512

// pricedCol is one pricing round's candidate: an index into builder.delayed
// and its reduced cost under the round's duals.
type pricedCol struct {
	c  int
	rc float64
}

// Universe implements lp.PricingOracle: the number of delayed transfer
// columns. Zero means the restricted master is the full model.
func (b *builder) Universe() int { return len(b.delayed) }

// PriceBatch implements lp.PricingOracle over the delayed transfer columns.
// Every pending column whose reduced cost under y is below -tol enters; past
// colGenBatch candidates only the most negative do, ties broken on the lower
// candidate index so the cut is deterministic. Whatever the cut keeps is
// materialized in ascending candidate order, which is ascending (file,
// edge) order. No rows are added: every delayed column's four rows exist
// from the start.
func (b *builder) PriceBatch(m *lp.Model, y []float64, tol float64) (int, int, error) {
	b.cands = b.cands[:0]
	for c, d := range b.delayed {
		if b.mvars[d.file][d.edge] != varDelayed {
			continue
		}
		if rc := b.reducedCost(d, y); rc < -tol {
			b.cands = append(b.cands, pricedCol{c: c, rc: rc})
		}
	}
	if len(b.cands) > colGenBatch {
		slices.SortFunc(b.cands, func(p, q pricedCol) int {
			return cmp.Or(cmp.Compare(p.rc, q.rc), cmp.Compare(p.c, q.c))
		})
		b.cands = b.cands[:colGenBatch]
		slices.SortFunc(b.cands, func(p, q pricedCol) int { return cmp.Compare(p.c, q.c) })
	}
	for _, p := range b.cands {
		if err := b.materialize(m, b.delayed[p.c]); err != nil {
			return 0, 0, err
		}
	}
	return len(b.cands), 0, nil
}

// MaterializeRest implements lp.PricingOracle: it materializes every pending
// delayed column in ascending (file, edge) order, so the re-solve after an
// infeasible restriction is a full-model verdict.
func (b *builder) MaterializeRest(m *lp.Model) (int, int, bool, error) {
	cols := 0
	for _, d := range b.delayed {
		if b.mvars[d.file][d.edge] != varDelayed {
			continue
		}
		if err := b.materialize(m, d); err != nil {
			return 0, 0, false, err
		}
		cols++
	}
	return cols, 0, true, nil
}

// reducedCost is the reduced cost of delayed column d under row duals y
// (minimization sign convention). A transfer column M^k_ijn carries
// objective Epsilon and exactly four row coefficients — +1 in the edge's
// capacity and charge rows, +1 in the tail conservation row (i, n) and -1
// in the head row (j, n+1) — all of which exist by construction (rows are
// emitted on universe support).
func (b *builder) reducedCost(d delayedCol, y []float64) float64 {
	e := b.tg.Edge(int(d.edge))
	out, in := b.consRows(d)
	return netmodel.Epsilon -
		y[b.capRow[e.Index]] - y[b.chargeRow[e.Index]] -
		y[out] + y[in]
}

// consRows returns the tail and head conservation rows of delayed column d.
func (b *builder) consRows(d delayedCol) (out, in lp.ConID) {
	k := int(d.file)
	e := b.tg.Edge(int(d.edge))
	n := b.tg.Network().NumDCs()
	first := b.consFirst[k]
	out = b.consRow[k][(e.Slot-first)*n+int(e.From)]
	in = b.consRow[k][(e.Slot+1-first)*n+int(e.To)]
	return out, in
}

// materialize grafts delayed column d onto the restricted master with its
// full coefficient support.
func (b *builder) materialize(m *lp.Model, d delayedCol) error {
	k := int(d.file)
	f := b.files[k]
	e := b.tg.Edge(int(d.edge))
	out, in := b.consRows(d)
	b.colCons[0], b.colCons[1], b.colCons[2], b.colCons[3] =
		b.capRow[e.Index], b.chargeRow[e.Index], out, in
	v, err := m.AddColumn(0, f.Size, netmodel.Epsilon, "", b.colCons[:], colCoef[:])
	if err != nil {
		return err
	}
	b.mvars[k][e.Index] = v
	b.colKeys = append(b.colKeys, modelKey{kind: kindM, file: f.ID, from: e.From, to: e.To, slot: e.Slot})
	return nil
}

// colCoef is the coefficient pattern every transfer column shares, parallel
// to the builder's colCons scratch: capacity +1, charge +1, tail
// conservation +1, head conservation -1.
var colCoef = [4]float64{1, 1, 1, -1}

// extractSchedule converts positive variables of the solution into actions.
// Values at solver-noise scale are dropped; the verifier runs with a
// matching tolerance.
func (b *builder) extractSchedule(sol *lp.Solution) *schedule.Schedule {
	const tol = 1e-5
	s := &schedule.Schedule{}
	for k, f := range b.files {
		for idx, v := range b.mvars[k] {
			if v < 0 {
				continue
			}
			amount := sol.Value(v)
			if amount <= tol {
				continue
			}
			e := b.tg.Edge(idx)
			s.Add(schedule.Action{
				FileID: f.ID,
				From:   e.From,
				To:     e.To,
				Slot:   e.Slot,
				Amount: amount,
			})
		}
	}
	return s
}

// chargedCost evaluates sum over links of price * X at the LP optimum.
func (b *builder) chargedCost(sol *lp.Solution) float64 {
	total := 0.0
	nw := b.tg.Network()
	nw.Links(func(l netmodel.Link, price, _ float64) {
		total += price * sol.Value(b.xvars[l])
	})
	return total
}
