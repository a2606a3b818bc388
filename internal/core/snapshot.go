package core

import (
	"cmp"
	"slices"

	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
)

// SnapshotKey is the serializable form of one modelKey: the structural
// identity of an LP column or row, stable across processes because it is
// built only from file IDs, datacenter indices, and absolute slots.
type SnapshotKey struct {
	Kind int8 `json:"k"`
	File int  `json:"f"`
	From int  `json:"i"`
	To   int  `json:"j"`
	Slot int  `json:"s"`
}

// SolverSnapshot is the serializable cross-slot state of a Solver: the
// last solve's basis with the structural keys of its columns and rows, its
// retained paths and the IDs of its files, the state its slot opened with
// when that differs, plus the cumulative work counters. Restoring it into a
// fresh Solver of the same pricing mode, bound to an equivalent network,
// makes the next Solve map the basis and seed the path master exactly as an
// uninterrupted solver would, so a process restart resumes the remaining
// horizon with bit-identical plans under either pricing mode (the recycled
// time-expanded graph and builder are rebuilt on demand and never affect
// results — only the GraphReuses counter can differ). A Solver of the other
// pricing mode drops the LP state and keeps the counters: its first solve
// after Restore runs cold (see Restore).
type SolverSnapshot struct {
	// Valid reports whether the snapshot carries warm-start state; a
	// solver that has not solved anything yet snapshots Valid == false
	// with only its counters.
	Valid bool `json:"valid"`
	PrevT int  `json:"prev_t"`
	BasisSnapshot
	// Files lists the IDs of the files the last solve had.
	Files []int `json:"files,omitempty"`
	// Start is the state slot PrevT opened with, absent when it is the
	// last solve's.
	Start *BasisSnapshot `json:"start,omitempty"`
	Stats SolveStats     `json:"stats"`
}

// BasisSnapshot is one cached basis with the structural keys of its columns
// and rows, and the path master's retained paths (absent under PricingArc,
// and in snapshots written before they were recorded).
type BasisSnapshot struct {
	Basis *lp.Basis       `json:"basis,omitempty"`
	Cols  []SnapshotKey   `json:"cols,omitempty"`
	Rows  []SnapshotKey   `json:"rows,omitempty"`
	Paths []PathsSnapshot `json:"paths,omitempty"`
}

// PathsSnapshot is the serializable form of the node sequences a solver
// retains for one (source, destination) pair, in retention order.
// Snapshots list pairs in ascending (Src, Dst) order, so the JSON is
// deterministic.
type PathsSnapshot struct {
	Src   netmodel.DC     `json:"src"`
	Dst   netmodel.DC     `json:"dst"`
	Nodes [][]netmodel.DC `json:"nodes"`
}

// Snapshot captures the solver's warm-start state and counters. The
// returned value shares nothing with the solver.
func (s *Solver) Snapshot() *SolverSnapshot {
	snap := &SolverSnapshot{Stats: s.stats}
	if !s.valid || s.last.basis == nil {
		return snap
	}
	snap.Valid = true
	snap.PrevT = s.prevT
	snap.BasisSnapshot = s.last.snapshot()
	snap.Files = slices.Clone(s.last.files)
	if s.start.basis != s.last.basis {
		start := s.start.snapshot()
		snap.Start = &start
	}
	return snap
}

// Restore primes the solver from a snapshot, binding the warm-start state
// to nw — the network the subsequent Solve calls will run against (the
// cache keys carry absolute slots, so nw must describe the same topology
// and pricing the snapshot was captured under for the resumed plans to
// match). A snapshot without valid state, one whose shapes do not line up,
// or one written under the other pricing mode restores only the counters
// and leaves the solver cold, so its first solve is the stateless Solve.
// The last case is how a snapshot of an admission daemon whose
// re-optimizer still ran the arc model resumes on the path master: the arc
// basis's shared keys (charged-volume columns, capacity and charge rows)
// would map into the path master a start no uninterrupted path solver
// ever had.
func (s *Solver) Restore(nw *netmodel.Network, snap *SolverSnapshot) {
	s.Reset()
	if snap == nil {
		return
	}
	s.stats = snap.Stats
	arc := s.conf.Pricing == PricingArc
	if !snap.Valid || nw == nil || !snap.BasisSnapshot.fits(arc) ||
		(snap.Start != nil && snap.Start.Basis != nil && !snap.Start.fits(arc)) {
		return
	}
	s.nw = nw
	s.prevT = snap.PrevT
	s.valid = true
	s.last = snap.BasisSnapshot.state()
	s.last.files = slices.Clone(snap.Files)
	if snap.Start != nil {
		s.start = snap.Start.state()
	} else {
		s.start.copyFrom(&s.last)
	}
}

// snapshot returns the serializable copy of st.
func (st *solveState) snapshot() BasisSnapshot {
	if st.basis == nil {
		return BasisSnapshot{}
	}
	return BasisSnapshot{Basis: st.basis.Clone(), Cols: keysToSnapshot(st.cols), Rows: keysToSnapshot(st.rows),
		Paths: pathsToSnapshot(st.paths)}
}

// fits reports whether the basis is present, its shape matches its keys,
// and the keys were minted by the formulation a solver with arc (pricing
// mode PricingArc) builds: only the arc model has conservation rows.
func (b *BasisSnapshot) fits(arc bool) bool {
	return b.Basis != nil && b.Basis.NumVars == len(b.Cols) && b.Basis.NumRows == len(b.Rows) &&
		len(b.Basis.Status) == b.Basis.NumVars+b.Basis.NumRows &&
		slices.ContainsFunc(b.Rows, func(k SnapshotKey) bool { return k.Kind == kindCons }) == arc
}

// state returns the solver-side copy of b (empty when b has no basis).
func (b *BasisSnapshot) state() solveState {
	if b.Basis == nil {
		return solveState{}
	}
	return solveState{basis: b.Basis.Clone(), cols: snapshotToKeys(b.Cols), rows: snapshotToKeys(b.Rows),
		paths: snapshotToPaths(b.Paths)}
}

func pathsToSnapshot(paths map[netmodel.Link][][]netmodel.DC) []PathsSnapshot {
	var out []PathsSnapshot
	for l, seqs := range paths {
		out = append(out, PathsSnapshot{Src: l.From, Dst: l.To, Nodes: cloneSeqs(seqs)})
	}
	slices.SortFunc(out, func(a, b PathsSnapshot) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return out
}

func snapshotToPaths(snap []PathsSnapshot) map[netmodel.Link][][]netmodel.DC {
	if len(snap) == 0 {
		return nil
	}
	out := make(map[netmodel.Link][][]netmodel.DC, len(snap))
	for _, ps := range snap {
		out[netmodel.Link{From: ps.Src, To: ps.Dst}] = cloneSeqs(ps.Nodes)
	}
	return out
}

func cloneSeqs(seqs [][]netmodel.DC) [][]netmodel.DC {
	out := make([][]netmodel.DC, len(seqs))
	for i, seq := range seqs {
		out[i] = slices.Clone(seq)
	}
	return out
}

func keysToSnapshot(keys []modelKey) []SnapshotKey {
	out := make([]SnapshotKey, len(keys))
	for i, k := range keys {
		out[i] = SnapshotKey{Kind: k.kind, File: k.file, From: int(k.from), To: int(k.to), Slot: k.slot}
	}
	return out
}

func snapshotToKeys(keys []SnapshotKey) []modelKey {
	out := make([]modelKey, len(keys))
	for i, k := range keys {
		out[i] = modelKey{kind: k.Kind, file: k.File, from: netmodel.DC(k.From), to: netmodel.DC(k.To), slot: k.Slot}
	}
	return out
}
