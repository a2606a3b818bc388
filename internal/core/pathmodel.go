package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/timegraph"
)

// PricingMode selects how the per-file routing polytope enters the LP.
type PricingMode int

// Pricing modes.
const (
	// PricingArc is the PR 5 formulation: per-(file, edge) flow variables
	// under per-node conservation rows, with delayed per-arc column
	// generation. Exact and fast at paper scale (≤ ~16 DCs).
	PricingArc PricingMode = iota
	// PricingPath is the Dantzig–Wolfe decomposition for 100+ DC scale:
	// one convexity (demand) row per file, whole source→deadline path
	// columns priced by a per-file shortest-path oracle on the
	// time-expanded graph, and capacity/charge rows materialized lazily on
	// first use. The conservation rows — the dominant row class of the arc
	// model, Θ(files × DCs × deadline) — disappear entirely, so the
	// restricted master stays a few hundred rows even on overlays whose
	// arc model would carry tens of thousands. Exact: generation
	// terminates only when no path prices attractive, which certifies the
	// master optimum against the full arc model (see DESIGN.md §11).
	PricingPath
)

// pathBigM is Postcard's objective coefficient of the per-file artificial
// columns that keep the restricted path master feasible before enough
// paths have been generated. Any value dominating the true per-GB marginal
// delivery cost (bounded by link prices times path length, orders of
// magnitude smaller) yields the exact optimum; if the artificials stay
// positive the verdict comes from the volume master, which prices them at 1
// (pathBuilder.settle), so exactness never depends on the constant. Sec.
// VI's master prices them at 1 too (see MaxVolume), and so does the flow
// family's feasibility step (FlowRates).
const pathBigM = 1e9

// The shared entries of pathBuilder's weight table: an edge without rows
// whose absent charge row is slack weighs 0, a zero-capacity edge +Inf,
// and a tight one its link's budget share at wLinks+lid.
const (
	wSlack = iota
	wBlocked
	wLinks
)

// pathCol records one materialized path column: the model variable, the
// file it belongs to, and its edge sequence as a range into the builder's
// shared edge arena.
type pathCol struct {
	v          lp.VarID
	file       int32
	start, end int32
}

// pathBuilder assembles and prices the Dantzig–Wolfe path master. It
// implements lp.PricingOracle: each pricing round runs one shortest-path
// subproblem per file — fanned across a worker pool, merged back in file
// order so results are bit-deterministic regardless of worker count — and
// materializes every attractive path column together with whatever
// capacity and charge rows its edges touch for the first time.
type pathBuilder struct {
	instance

	model *lp.Model
	// The data that selects the problem the master solves: newPathBuilder
	// sets Postcard's, MaxVolume and FlowRates override it (DESIGN.md
	// §11). artPrice is the artificials' objective (pathBigM, or 1:
	// undelivered volume); xCost scales each link's price into its X
	// column's objective (1, or 0); paid reads capacities from the ledger's
	// paid headroom instead of its residual; maxCost, when non-nil, caps
	// Σ price·X in budgetRow (-1 when absent). flow makes every column a
	// static overlay path carrying one rate through its file's window, and
	// the demand the desired rate; concurrent adds the λ column lambda.
	artPrice   float64
	xCost      float64
	paid       bool
	maxCost    *float64
	budgetRow  lp.ConID
	flow       bool
	concurrent bool
	lambda     lp.VarID
	// demandRow[k] is file k's convexity row (sum of its path columns plus
	// its artificial equals the file size); artVar[k] the artificial.
	demandRow []lp.ConID
	artVar    []lp.VarID
	// xvars maps link -> charged-volume epigraph column. Unlike the arc
	// model, X columns materialize lazily with their link's first charge
	// row: an X with no charge rows sits at its lower bound in every
	// optimum, so omitting it (and accounting price·ChargedVolume directly
	// in chargedCost) is exact and keeps the master independent of the
	// overlay's link count.
	xvars map[netmodel.Link]lp.VarID
	// capRow/chargeRow map edge index -> lazily created row (-1 absent).
	capRow    []lp.ConID
	chargeRow []lp.ConID
	// support marks transfer edges inside some file's pruned universe; rows
	// only ever materialize on support, mirroring the arc model's
	// row-emission rule exactly.
	support []bool

	cols    []pathCol
	arena   []int32
	seen    map[uint64][]int32 // path hash -> indices into cols
	colKeys []modelKey
	rowKeys []modelKey

	// Lazy-dual pricing state. A charge row that is still absent from the
	// master carries a chosen dual, not necessarily zero: rows tight at zero
	// path flow (committed slot volume equal to the charged floor — every
	// edge of an untouched link) are exempt from complementary slackness, so
	// the certificate may distribute the link's budget — the X column's
	// reduced cost price + Σ materialized charge duals — across them. That
	// makes pricing see an untouched link's true marginal cost instead of
	// zero, which is what keeps the round count flat as the network grows.
	tight     []bool    // per edge in some file's window: absent charge row is tight at zero flow
	blocked   []bool    // per edge: zero residual capacity, excluded outright
	linkOf    []int     // per edge: dense link id (-1 for storage edges), its edge's index in the first slot
	linkPrice []float64 // per link id: the link's price
	budget    []float64 // per link id, per round: distributable charge dual, then its share
	absent    []int     // per link id: absent tight charge rows

	// Transfer-edge pricing weights in timegraph.Weights form: edge i
	// weighs wRaw[wRef[i]] in the master (computeEdgeWeights) and
	// wVal[wRef[i]] = Epsilon + that in the sweep. Edges without a
	// materialized row share the entries wSlack, wBlocked and wLinks+lid;
	// the k-th edge of rowEdges, which has a capacity or charge row, owns
	// entry wLinks+len(linkPrice)+k. So a round rewrites one weight per link
	// and per row edge, not one per edge of the horizon.
	wRef     []int32
	wRaw     []float64
	wVal     []float64
	rowEdges []int32 // edges with a materialized row

	// Per-round pricing scratch: one PathFinder per worker, per-file result
	// buffers written by the workers and consumed by the serial merge.
	finders  []timegraph.PathFinder
	resEdges [][]int32
	resW     []float64
	resOK    []bool

	// Extraction scratch: per-edge amounts plus the dirty list.
	amount []float64
	dirty  []int32

	rowIdx []lp.VarID
	rowVal []float64
	conBuf []lp.ConID
	cofBuf []float64

	varUniverse int
	prunedVars  int

	// Round accounting the PriceBatch hook fills in.
	addedCols, addedRows int
}

// newPathBuilder prepares a path-master builder, recycling every backing
// allocation of a previous build when recycle is non-nil (the incremental
// Solver's steady state).
func newPathBuilder(recycle *pathBuilder, tg *timegraph.Graph, ledger *netmodel.Ledger, files []netmodel.File, reach []timegraph.Reachability, conf Config) *pathBuilder {
	pb := recycle
	if pb == nil {
		pb = &pathBuilder{
			model: lp.NewModel(),
			xvars: make(map[netmodel.Link]lp.VarID),
			seen:  make(map[uint64][]int32),
		}
	} else {
		pb.model.Reset()
		clear(pb.xvars)
		clear(pb.seen)
		pb.cols = pb.cols[:0]
		pb.arena = pb.arena[:0]
		pb.colKeys = pb.colKeys[:0]
		pb.rowKeys = pb.rowKeys[:0]
	}
	pb.instance = instance{tg: tg, ledger: ledger, files: files, reach: reach, conf: conf}
	pb.artPrice, pb.xCost, pb.paid, pb.maxCost, pb.budgetRow = pathBigM, 1, false, nil, -1
	pb.flow, pb.concurrent, pb.lambda = false, false, -1
	pb.varUniverse, pb.prunedVars = 0, 0
	return pb
}

// build assembles the initial restricted master: per-file demand rows with
// their artificial columns, the budget row over every link's X column when
// there is a budget, plus eager charge "floor" rows wherever the ledger's
// committed volume already exceeds the charged-volume lower bound on a
// supported edge (possible only under partial-percentile charging, where
// the lazy-row slackness argument would not hold for them). Path columns,
// capacity rows and the remaining charge rows all enter lazily through
// pricing.
func (pb *pathBuilder) build() error {
	ne := pb.tg.NumEdges()
	pb.demandRow = intSlice(pb.demandRow, len(pb.files))
	pb.artVar = intSlice(pb.artVar, len(pb.files))
	pb.capRow = intSlice(pb.capRow, ne)
	pb.chargeRow = intSlice(pb.chargeRow, ne)
	pb.support = intSlice(pb.support, ne)
	pb.tight = intSlice(pb.tight, ne)
	pb.blocked = intSlice(pb.blocked, ne)
	pb.linkOf = intSlice(pb.linkOf, ne)
	pb.wRef = intSlice(pb.wRef, ne)
	pb.rowEdges = pb.rowEdges[:0]
	pb.linkPrice, pb.absent = pb.linkPrice[:0], pb.absent[:0]
	linkID := make(map[netmodel.Link]int, len(pb.linkPrice))
	for i := 0; i < ne; i++ {
		pb.capRow[i], pb.chargeRow[i], pb.support[i] = -1, -1, false
		pb.linkOf[i] = -1
	}
	// Edges past every file's window exist only on a recycled graph with
	// surplus layers. They must not count as tight, or the certificate pass
	// would split link budgets differently than on a fresh graph.
	lastSlot := -1
	for _, f := range pb.files {
		if _, last, ok := pb.tg.FileWindow(f); ok {
			lastSlot = max(lastSlot, last)
		}
	}
	pb.tg.Edges(func(e timegraph.Edge) {
		if e.Storage {
			return
		}
		l := netmodel.Link{From: e.From, To: e.To}
		id, ok := linkID[l]
		if !ok {
			id = len(pb.linkPrice)
			linkID[l] = id
			pb.linkPrice = append(pb.linkPrice, e.Price)
			pb.absent = append(pb.absent, 0)
		}
		pb.linkOf[e.Index] = id
		pb.tight[e.Index] = e.Slot <= lastSlot &&
			pb.ledger.VolumeAt(e.From, e.To, e.Slot) >= pb.ledger.ChargedVolume(e.From, e.To)
		pb.blocked[e.Index] = pb.capacity(e) <= 0
		switch {
		case pb.blocked[e.Index]:
			pb.wRef[e.Index] = wBlocked
		case pb.tight[e.Index]:
			pb.wRef[e.Index] = wLinks + int32(id)
		default:
			pb.wRef[e.Index] = wSlack
		}
		if pb.tight[e.Index] {
			pb.absent[id]++
		}
	})
	if pb.concurrent {
		pb.lambda = pb.model.AddVariable(0, 1, -1, "")
		pb.colKeys = append(pb.colKeys, modelKey{kind: kindLambda, file: -1, from: -1, to: -1, slot: -1})
	}
	for k, f := range pb.files {
		demand, artHi := f.Size, math.Inf(1)
		switch {
		case pb.concurrent:
			// Right-hand side 0, which the artificial, held at 0, covers
			// without entering the objective.
			demand, artHi = 0, 0
		case pb.flow:
			demand = f.DesiredRate()
		}
		pb.artVar[k] = pb.model.AddVariable(0, artHi, pb.artPrice, "")
		pb.colKeys = append(pb.colKeys, modelKey{kind: kindArt, file: f.ID, from: -1, to: -1, slot: -1})
		idx, val := []lp.VarID{pb.artVar[k]}, []float64{1}
		if pb.concurrent {
			idx, val = append(idx, pb.lambda), append(val, -f.DesiredRate())
		}
		row, err := pb.model.AddConstraint(lp.EQ, demand, idx, val)
		if err != nil {
			return err
		}
		pb.demandRow[k] = row
		pb.rowKeys = append(pb.rowKeys, modelKey{kind: kindDemand, file: f.ID, from: -1, to: -1, slot: -1})
	}
	if pb.maxCost != nil {
		pb.rowIdx, pb.rowVal = pb.rowIdx[:0], pb.rowVal[:0]
		pb.tg.Network().Links(func(l netmodel.Link, price, _ float64) {
			pb.rowIdx = append(pb.rowIdx, pb.ensureX(l.From, l.To, price))
			pb.rowVal = append(pb.rowVal, price)
		})
		row, err := pb.model.AddConstraint(lp.LE, *pb.maxCost, pb.rowIdx, pb.rowVal)
		if err != nil {
			return err
		}
		pb.budgetRow = row
		pb.rowKeys = append(pb.rowKeys, modelKey{kind: kindBudget, file: -1, from: -1, to: -1, slot: -1})
	}
	// Universe/support pass over the arc builder's universe, so VarUniverse
	// and PrunedVars report the identical accounting and rows only ever
	// materialize where the arc model would have emitted them.
	for k := range pb.files {
		err := pb.universe(k, func(e timegraph.Edge, allowed bool) {
			if !allowed {
				pb.prunedVars++
				return
			}
			pb.varUniverse++
			if !e.Storage {
				pb.support[e.Index] = true
			}
		})
		if err != nil {
			return err
		}
	}
	// Charge floor rows: a lazily omitted charge row is slack only while
	// X's lower bound covers the committed volume; under q-percentile
	// charging with q < 100 the committed slot volume can exceed the
	// charged floor, so those rows (and their X columns) enter eagerly.
	errOut := error(nil)
	pb.tg.Edges(func(e timegraph.Edge) {
		if errOut != nil || e.Storage || !pb.support[e.Index] {
			return
		}
		committed := pb.ledger.VolumeAt(e.From, e.To, e.Slot)
		if committed <= pb.ledger.ChargedVolume(e.From, e.To) {
			return
		}
		if _, err := pb.ensureChargeRow(e); err != nil {
			errOut = err
		}
	})
	return errOut
}

// ensureX returns the charged-volume epigraph column of link from->to,
// materializing it on first use.
func (pb *pathBuilder) ensureX(from, to netmodel.DC, price float64) lp.VarID {
	l := netmodel.Link{From: from, To: to}
	if x, ok := pb.xvars[l]; ok {
		return x
	}
	x := pb.model.AddVariable(pb.ledger.ChargedVolume(from, to), math.Inf(1), price*pb.xCost, "")
	pb.xvars[l] = x
	pb.colKeys = append(pb.colKeys, modelKey{kind: kindX, file: -1, from: from, to: to, slot: -1})
	pb.addedCols++
	return x
}

// ensureChargeRow returns e's charge row (sum of path flow minus X bounded
// by the committed volume), creating it — and its link's X column — on
// first use.
func (pb *pathBuilder) ensureChargeRow(e timegraph.Edge) (lp.ConID, error) {
	if r := pb.chargeRow[e.Index]; r >= 0 {
		return r, nil
	}
	x := pb.ensureX(e.From, e.To, e.Price)
	committed := pb.ledger.VolumeAt(e.From, e.To, e.Slot)
	row, err := pb.model.AddConstraint(lp.LE, -committed, []lp.VarID{x}, []float64{-1})
	if err != nil {
		return -1, err
	}
	pb.chargeRow[e.Index] = row
	pb.rowKeys = append(pb.rowKeys, modelKey{kind: kindCharge, file: -1, from: e.From, to: e.To, slot: e.Slot})
	pb.addedRows++
	if pb.tight[e.Index] {
		pb.absent[pb.linkOf[e.Index]]--
	}
	pb.noteRow(e.Index)
	return row, nil
}

// noteRow gives edge i, which has just gained a materialized row, its own
// weight entry, unless its other row already did.
func (pb *pathBuilder) noteRow(i int) {
	if pb.wRef[i] >= wLinks+int32(len(pb.linkPrice)) {
		return
	}
	pb.wRef[i] = wLinks + int32(len(pb.linkPrice)+len(pb.rowEdges))
	pb.rowEdges = append(pb.rowEdges, int32(i))
}

// capacity is what edge e may carry: its residual, or its paid headroom
// when paid is set.
func (pb *pathBuilder) capacity(e timegraph.Edge) float64 {
	if pb.paid {
		return pb.ledger.PaidHeadroom(e.From, e.To, e.Slot)
	}
	return pb.ledger.Residual(e.From, e.To, e.Slot)
}

// ensureCapRow returns e's capacity row, creating it on first use.
func (pb *pathBuilder) ensureCapRow(e timegraph.Edge) (lp.ConID, error) {
	if r := pb.capRow[e.Index]; r >= 0 {
		return r, nil
	}
	row, err := pb.model.AddConstraint(lp.LE, pb.capacity(e), nil, nil)
	if err != nil {
		return -1, err
	}
	pb.capRow[e.Index] = row
	pb.rowKeys = append(pb.rowKeys, modelKey{kind: kindCap, file: -1, from: e.From, to: e.To, slot: e.Slot})
	pb.addedRows++
	pb.noteRow(e.Index)
	return row, nil
}

// Universe implements lp.PricingOracle: the size of the arc-variable
// universe the path columns span implicitly.
func (pb *pathBuilder) Universe() int { return pb.varUniverse }

// pricingWorkers resolves the worker-pool width for one pricing round.
func (pb *pathBuilder) pricingWorkers() int {
	w := pb.conf.pricingWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(pb.files) {
		w = len(pb.files)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// priceFile runs file k's shortest-path subproblem under duals y using
// finder, leaving the result in the per-file buffers.
func (pb *pathBuilder) priceFile(k int, y []float64, finder *timegraph.PathFinder) {
	if pb.flow {
		pb.priceFlow(k)
		return
	}
	weights := timegraph.Weights{Ref: pb.wRef, Val: pb.wVal}
	path, w, ok := finder.ShortestPath(pb.tg, pb.files[k], pb.conf.Storage, weights)
	pb.resOK[k] = ok
	if !ok {
		return
	}
	pb.resW[k] = w
	buf := pb.resEdges[k][:0]
	for _, idx := range path {
		buf = append(buf, int32(idx))
	}
	pb.resEdges[k] = buf
}

// priceFlow is priceFile for flow columns: a cheapest path on the static
// overlay from the file's source to its destination, where link l weighs
// Epsilon plus the sum of the master's weights of l's edges in the file's
// window (the rows the column would enter), expanded into those edges slot
// by slot. A link's id is its edge's index in the graph's first slot.
func (pb *pathBuilder) priceFlow(k int) {
	f := pb.files[k]
	w := make([]float64, len(pb.linkPrice))
	pb.tg.WindowEdges(f, func(e timegraph.Edge) {
		if !e.Storage {
			w[pb.linkOf[e.Index]] += pb.wRaw[pb.wRef[e.Index]]
		}
	})
	start := pb.tg.Start()
	path, cost, ok := pb.tg.Network().CheapestPath(f.Src, f.Dst, func(l netmodel.Link) float64 {
		e, _ := pb.tg.EdgeAt(l.From, l.To, start)
		if math.IsInf(w[e.Index], 1) {
			return w[e.Index] // blocked
		}
		return netmodel.Epsilon + max(w[e.Index], 0)
	})
	if pb.resOK[k], pb.resW[k] = ok, cost; !ok {
		return
	}
	first, last, _ := pb.tg.FileWindow(f)
	buf := pb.resEdges[k][:0]
	for s := first; s <= last; s++ {
		for _, l := range path {
			e, _ := pb.tg.EdgeAt(l.From, l.To, s)
			buf = append(buf, int32(e.Index))
		}
	}
	pb.resEdges[k] = buf
}

// computeEdgeWeights fills wRaw and wVal with this round's transfer-edge
// pricing weights (wVal adds the Epsilon hop cost): −y for
// materialized cap and charge rows, +Inf for zero-capacity edges (their
// tight absent cap row certifies any exclusion: all weights are
// nonnegative under feasible duals, so assigning it an arbitrarily
// negative dual prices every such path above any σ), and for absent charge
// rows the chosen lazy dual — zero when the row is slack at zero flow
// (flow below the charged floor really is free), otherwise a share of the
// link's budget: its X column's reduced cost, price·xCost − price·y_B
// (y_B the budget row's dual, zero without one) plus the materialized
// charge rows' duals. Without charge rows that is the link price for
// Postcard, price·(−y_B) under MaxUnderBudget and 0 for MaxBulk. The
// heuristic pass (certificate=false) charges the full budget on every
// absent tight row, the link's true marginal cost; since one path crosses
// a link in at most one slot that guides the search perfectly, but the
// implied dual vector over-spends the budget, so a quiet heuristic round
// proves nothing. The certificate pass splits the budget evenly across the
// link's absent tight rows, which is a genuinely dual-feasible,
// complementary-slack extension of the master's duals: a quiet certificate
// round is an optimality proof against the full model. The split stays a
// valid dual extension for flow columns, which the heuristic charge does
// not fit: a flow column crosses its links in every slot of its window, so
// the full budget on each absent row would charge a link once per slot.
//
// The work is per link and per row edge. Absent counts change only when a
// charge row materializes, so they are kept up to date there; a budget sums
// its link's charge duals in edge-index order; and an edge without rows
// weighs its link's share, 0 or +Inf through a shared entry, so only edges
// with a row carry a weight of their own.
func (pb *pathBuilder) computeEdgeWeights(y []float64, certificate bool) {
	nl := len(pb.linkPrice)
	rows := wLinks + nl
	slices.Sort(pb.rowEdges) // rows materialize in path order
	for k, i := range pb.rowEdges {
		pb.wRef[i] = int32(rows + k)
	}
	pb.budget = intSlice(pb.budget, nl)
	xrc := pb.xCost
	if pb.budgetRow >= 0 {
		xrc -= y[pb.budgetRow] // LE-row dual, ≤ 0
	}
	for i, price := range pb.linkPrice {
		pb.budget[i] = price * xrc
	}
	for _, i := range pb.rowEdges {
		if r := pb.chargeRow[i]; r >= 0 {
			pb.budget[pb.linkOf[i]] += y[r] // LE-row duals are ≤ 0
		}
	}
	// The table grows by the rows each round adds: grow it as append would.
	n := rows + len(pb.rowEdges)
	pb.wRaw = slices.Grow(pb.wRaw[:0], n)[:n]
	pb.wVal = slices.Grow(pb.wVal[:0], n)[:n]
	pb.wRaw[wSlack], pb.wRaw[wBlocked] = 0, math.Inf(1)
	for lid, b := range pb.budget {
		if b < 0 {
			b = 0 // float noise; dual feasibility pins it at ≥ 0
		}
		if certificate {
			b /= float64(pb.absent[lid])
		}
		pb.budget[lid] = b
		pb.wRaw[wLinks+lid] = 0 + b // composed as for a row edge, which starts at 0
	}
	for k, i := range pb.rowEdges {
		if pb.blocked[i] {
			pb.wRaw[rows+k] = math.Inf(1)
			continue
		}
		w := 0.0
		if r := pb.capRow[i]; r >= 0 {
			w -= y[r]
		}
		if r := pb.chargeRow[i]; r >= 0 {
			w -= y[r]
		} else if pb.tight[i] {
			w += pb.budget[pb.linkOf[i]]
		}
		pb.wRaw[rows+k] = w
	}
	for j, w := range pb.wRaw {
		pb.wVal[j] = netmodel.Epsilon + w
	}
}

// PriceBatch implements lp.PricingOracle: one Dantzig–Wolfe pricing round.
// Every file's subproblem — a label-correcting shortest path over reduced
// costs Epsilon − y_cap − y_charge, with absent lazy rows priced at their
// chosen certificate duals (see computeEdgeWeights) — runs concurrently;
// each path whose reduced cost W − σ_k beats −tol is materialized serially
// in file order, creating the capacity and charge rows its edges touch for
// the first time. The round prices heuristically first (full budgets on
// untouched links, which keeps the round count independent of network
// size); only when that finds nothing does it re-price under the
// dual-consistent budget split, so a zero-column return really certifies
// the master optimum against the full arc model.
func (pb *pathBuilder) PriceBatch(m *lp.Model, y []float64, tol float64) (int, int, error) {
	nf := len(pb.files)
	if cap(pb.resEdges) < nf {
		pb.resEdges = make([][]int32, nf)
	} else {
		pb.resEdges = pb.resEdges[:nf]
	}
	pb.resW = intSlice(pb.resW, nf)
	pb.resOK = intSlice(pb.resOK, nf)
	workers := pb.pricingWorkers()
	if cap(pb.finders) < workers {
		pb.finders = make([]timegraph.PathFinder, workers)
	} else {
		pb.finders = pb.finders[:workers]
	}
	pb.addedCols, pb.addedRows = 0, 0
	for _, certificate := range []bool{false, true} {
		if pb.flow && !certificate {
			continue // see computeEdgeWeights
		}
		pb.computeEdgeWeights(y, certificate)
		if workers == 1 {
			for k := 0; k < nf; k++ {
				pb.priceFile(k, y, &pb.finders[0])
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := w; k < nf; k += workers {
						pb.priceFile(k, y, &pb.finders[w])
					}
				}(w)
			}
			wg.Wait()
		}
		for k := range pb.files {
			if !pb.resOK[k] {
				continue
			}
			if rc := pb.resW[k] - y[pb.demandRow[k]]; rc >= -tol {
				continue
			}
			if err := pb.materializePath(k, pb.resEdges[k]); err != nil {
				return 0, 0, err
			}
		}
		if pb.addedCols > 0 {
			break // heuristic pass found work; no certificate needed yet
		}
	}
	return pb.addedCols, pb.addedRows, nil
}

// MaterializeRest implements lp.PricingOracle. The path universe is
// implicit and inexhaustible, but the hook is also unreachable: the
// restricted master is feasible by construction (artificials cover every
// demand row, residuals are never negative), so the driver never sees an
// infeasible restriction to exhaust.
func (pb *pathBuilder) MaterializeRest(*lp.Model) (int, int, bool, error) {
	return 0, 0, false, nil
}

// pathHash is FNV-64a over the file index and edge sequence, identifying a
// path column structurally (also across slots: edge indices are positional,
// so the same physical route hashes identically on a rebased graph).
func pathHash(file int32, edges []int32) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(v>>s) & 0xff
			h *= prime64
		}
	}
	mix(uint32(file))
	for _, e := range edges {
		mix(uint32(e))
	}
	return h
}

// materializePath grafts one path column for file k onto the master,
// creating the rows its transfer edges need first. Its objective is
// Epsilon per transfer edge, or for a flow column Epsilon per link of its
// path. Duplicate paths (possible only under dual degeneracy at tolerance
// scale) are dropped — the column already exists, so re-adding it could
// only loop the driver.
func (pb *pathBuilder) materializePath(k int, edges []int32) error {
	f := pb.files[k]
	h := pathHash(int32(k), edges)
	for _, ci := range pb.seen[h] {
		c := pb.cols[ci]
		if c.file == int32(k) && int(c.end-c.start) == len(edges) {
			same := true
			for i, e := range pb.arena[c.start:c.end] {
				if e != edges[i] {
					same = false
					break
				}
			}
			if same {
				return nil
			}
		}
	}
	pb.conBuf = append(pb.conBuf[:0], pb.demandRow[k])
	pb.cofBuf = append(pb.cofBuf[:0], 1)
	transfers := 0
	for _, idx := range edges {
		e := pb.tg.Edge(int(idx))
		if e.Storage {
			continue
		}
		transfers++
		capID, err := pb.ensureCapRow(e)
		if err != nil {
			return err
		}
		chargeID, err := pb.ensureChargeRow(e)
		if err != nil {
			return err
		}
		pb.conBuf = append(pb.conBuf, capID, chargeID)
		pb.cofBuf = append(pb.cofBuf, 1, 1)
	}
	if pb.flow {
		first, last, _ := pb.tg.FileWindow(f)
		transfers /= last - first + 1
	}
	v, err := pb.model.AddColumn(0, math.Inf(1), netmodel.Epsilon*float64(transfers), "", pb.conBuf, pb.cofBuf)
	if err != nil {
		return err
	}
	start := int32(len(pb.arena))
	pb.arena = append(pb.arena, edges...)
	ci := int32(len(pb.cols))
	pb.cols = append(pb.cols, pathCol{v: v, file: int32(k), start: start, end: int32(len(pb.arena))})
	pb.seen[h] = append(pb.seen[h], ci)
	pb.colKeys = append(pb.colKeys, modelKey{kind: kindPath, file: f.ID, from: -1, to: -1, slot: int(h >> 1)})
	pb.addedCols++
	return nil
}

// solveSeeded builds the master under the builder's data, enters the
// columns cols of an earlier master (as copied out with the edge arena
// they index, for the same files), and solves it by column generation from
// the crash basis.
func (pb *pathBuilder) solveSeeded(cols []pathCol, arena []int32) (*lp.Solution, error) {
	if err := pb.build(); err != nil {
		return nil, err
	}
	for _, c := range cols {
		if err := pb.materializePath(int(c.file), arena[c.start:c.end]); err != nil {
			return nil, err
		}
	}
	basis := mappedBasis(pb.colKeys, pb.rowKeys, nil, nil, pb.crashNewFiles)
	sol, err := lp.SolvePriced(pb.model, pb, &lp.Options{InitialBasis: basis})
	if err != nil {
		return nil, fmt.Errorf("core: solving path master: %w", err)
	}
	return sol, nil
}

// flowRates reads a flow master's solution as rates[k][i], file k's rate
// on link i in Network.Links order. A flow column's first slot holds its
// path's links once each.
func (pb *pathBuilder) flowRates(sol *lp.Solution) [][]float64 {
	nl := len(pb.linkPrice)
	rates := make([][]float64, len(pb.files))
	for k := range rates {
		rates[k] = make([]float64, nl)
	}
	for _, c := range pb.cols {
		if v := sol.Value(c.v); v > 0 {
			first, last, _ := pb.tg.FileWindow(pb.files[c.file])
			edges := pb.arena[c.start:c.end]
			for _, idx := range edges[:len(edges)/(last-first+1)] {
				rates[c.file][pb.linkOf[idx]] += v
			}
		}
	}
	return rates
}

// artificialResidue reports whether some file's artificial is positive
// relative to its feasibility scale. False (to LP tolerance) certifies that
// the generated paths deliver every file in full and the master optimum is
// the true optimum. True on a master whose artificials are priced 1 is the
// Infeasible verdict; on a big-M master it is settled by the volume master
// (pathBuilder.settle).
func (pb *pathBuilder) artificialResidue(sol *lp.Solution) bool {
	for k, f := range pb.files {
		if sol.Value(pb.artVar[k]) > 1e-7*(1+f.Size) {
			return true
		}
	}
	return false
}

// extractSchedule aggregates the positive path columns into per-(file,
// edge) actions — several paths of one file may share an edge — emitted in
// edge-index order for determinism. Values at solver-noise scale are
// dropped, exactly like the arc extraction.
func (pb *pathBuilder) extractSchedule(sol *lp.Solution) *schedule.Schedule {
	const tol = 1e-5
	s := &schedule.Schedule{}
	ne := pb.tg.NumEdges()
	if cap(pb.amount) < ne {
		pb.amount = make([]float64, ne)
	} else {
		pb.amount = pb.amount[:ne]
		for i := range pb.amount {
			pb.amount[i] = 0
		}
	}
	byFile := make([][]int32, len(pb.files))
	for ci, c := range pb.cols {
		byFile[c.file] = append(byFile[c.file], int32(ci))
	}
	for k, f := range pb.files {
		pb.dirty = pb.dirty[:0]
		for _, ci := range byFile[k] {
			c := pb.cols[ci]
			val := sol.Value(c.v)
			if val <= 0 {
				continue
			}
			for _, idx := range pb.arena[c.start:c.end] {
				if pb.amount[idx] == 0 {
					pb.dirty = append(pb.dirty, idx)
				}
				pb.amount[idx] += val
			}
		}
		sort.Slice(pb.dirty, func(a, b int) bool { return pb.dirty[a] < pb.dirty[b] })
		for _, idx := range pb.dirty {
			amount := pb.amount[idx]
			pb.amount[idx] = 0
			if amount <= tol {
				continue
			}
			e := pb.tg.Edge(int(idx))
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

// chargedCost evaluates sum over links of price times charged volume at the
// optimum. Links whose X column never materialized have no charge rows, so
// their optimum is pinned at the ChargedVolume lower bound.
func (pb *pathBuilder) chargedCost(sol *lp.Solution) float64 {
	total := 0.0
	nw := pb.tg.Network()
	nw.Links(func(l netmodel.Link, price, _ float64) {
		if x, ok := pb.xvars[l]; ok {
			total += price * sol.Value(x)
		} else {
			total += price * pb.ledger.ChargedVolume(l.From, l.To)
		}
	})
	return total
}

// solve runs the path master by column generation and converts the outcome
// into a Result. unsettled reports that the master terminated with positive
// artificials (the generated paths cannot serve every file); the caller
// settles the verdict with pathBuilder.settle.
func (pb *pathBuilder) solve(opts *lp.Options) (res *Result, sol *lp.Solution, unsettled bool, err error) {
	sol, err = lp.SolvePriced(pb.model, pb, opts)
	if err != nil {
		return nil, nil, false, fmt.Errorf("core: solving Postcard path master: %w", err)
	}
	// A non-optimal outcome is structurally unreachable (the master is
	// feasible by construction), but like positive artificials it is a
	// restricted verdict the volume master settles.
	unsettled = sol.Status != lp.Optimal || pb.artificialResidue(sol)
	var p planner
	if !unsettled {
		p = pb
	}
	res, err = pb.result(sol, pb.model, Counters{
		Work:        sol.Work,
		VarUniverse: pb.varUniverse,
		PrunedVars:  pb.prunedVars,
	}, p)
	if err != nil {
		return nil, nil, false, err
	}
	return res, sol, unsettled, nil
}

// crashNewFiles upgrades a mapped basis for files the previous model did
// not contain: their artificial column enters basic against their demand
// row (a triangular flip — the artificial appears in that row only). On a
// from-scratch solve that is every file, so the implied point serves each
// file from its artificial: it is primal feasible and phase 1 is free
// except for partial-percentile floor rows. Files carried over (same-slot
// shedding retries) keep their mapped statuses.
func (pb *pathBuilder) crashNewFiles(out *lp.Basis, prevRowStat map[modelKey]lp.BasisStatus) {
	for k, f := range pb.files {
		key := modelKey{kind: kindDemand, file: f.ID, from: -1, to: -1, slot: -1}
		if _, carried := prevRowStat[key]; carried {
			continue
		}
		out.Status[pb.artVar[k]] = lp.BasisBasic
		out.Status[out.NumVars+int(pb.demandRow[k])] = lp.BasisAtLower
	}
}
