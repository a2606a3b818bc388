package lp

import "math"

// BasisStatus is the resting status of one variable in a stored simplex
// basis snapshot.
type BasisStatus byte

// Basis statuses. The zero value is invalid, which makes uninitialized
// snapshots detectable.
const (
	BasisBasic   BasisStatus = iota + 1 // variable is in the basis
	BasisAtLower                        // nonbasic at its lower bound
	BasisAtUpper                        // nonbasic at its upper bound
	BasisFree                           // nonbasic free variable resting at zero
)

// Basis is a snapshot of the simplex resting state over the computational
// form of a model: one status per structural variable (in AddVariable
// order) followed by one per logical/slack variable (in AddConstraint
// order). A Basis returned by Solve can be passed back as
// Options.InitialBasis to warm-start a subsequent solve of the same model
// — or of a structurally similar one with shifted bounds and right-hand
// sides, which is how consecutive-slot Postcard LPs reuse each other's
// work. Warm-starting is always safe: a snapshot that does not fit the
// model (wrong shape, wrong basic count, numerically singular basis) is
// silently discarded in favour of the usual cold start.
type Basis struct {
	NumVars int           // structural variables the snapshot was taken over
	NumRows int           // constraints the snapshot was taken over
	Status  []BasisStatus // length NumVars + NumRows
}

// Clone returns a deep copy of the basis.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		NumVars: b.NumVars,
		NumRows: b.NumRows,
		Status:  append([]BasisStatus(nil), b.Status...),
	}
}

// Normalize adjusts the snapshot in place so that exactly NumRows positions
// are basic — the count tryWarmStart requires. Surplus basics are demoted to
// BasisAtLower starting from the last logical position (tryWarmStart
// re-normalizes statuses that do not fit a variable's actual bounds); when
// basics are missing, logical positions are promoted starting from the first
// row. Callers assembling a basis from heterogeneous sources — e.g. mapping
// one model's final basis onto a structurally similar successor — use it to
// guarantee the snapshot passes the warm-start count check; the LU
// factorization's singularity repair then handles any remaining rank
// deficiency. It returns the receiver, and nil receivers pass through.
func (b *Basis) Normalize() *Basis {
	if b == nil {
		return nil
	}
	basics := 0
	for _, st := range b.Status {
		if st == BasisBasic {
			basics++
		}
	}
	// Demote: logicals from the end first, then structurals from the end.
	for p := len(b.Status) - 1; p >= 0 && basics > b.NumRows; p-- {
		if b.Status[p] == BasisBasic {
			b.Status[p] = BasisAtLower
			basics--
		}
	}
	// Promote: logicals from the first row upward.
	for p := b.NumVars; p < len(b.Status) && basics < b.NumRows; p++ {
		if b.Status[p] != BasisBasic {
			b.Status[p] = BasisBasic
			basics++
		}
	}
	return b
}

// captureBasis snapshots the current simplex resting state.
func (s *simplex) captureBasis() *Basis {
	total := s.cf.n + s.cf.m
	b := &Basis{NumVars: s.cf.n, NumRows: s.cf.m, Status: make([]BasisStatus, total)}
	for j := 0; j < total; j++ {
		switch s.vstat[j] {
		case vBasic:
			b.Status[j] = BasisBasic
		case vAtLower:
			b.Status[j] = BasisAtLower
		case vAtUpper:
			b.Status[j] = BasisAtUpper
		default:
			b.Status[j] = BasisFree
		}
	}
	return b
}

// tryWarmStart seeds the simplex from a stored basis snapshot. It returns
// false — leaving the caller to perform the ordinary cold start — when the
// snapshot does not match the model's shape, does not carry exactly m basic
// variables, or factorizes so poorly that the singularity repairs break the
// basis bookkeeping. Nonbasic statuses that no longer fit the current
// bounds (e.g. AtLower on a variable whose lower bound became -inf) are
// normalized to the nearest finite bound rather than rejected.
func (s *simplex) tryWarmStart(b *Basis) bool {
	cf := &s.cf
	total := cf.n + cf.m
	if b == nil || b.NumVars != cf.n || b.NumRows != cf.m || len(b.Status) != total {
		return false
	}
	s.factored = false
	nBasic := 0
	for j := 0; j < total; j++ {
		switch b.Status[j] {
		case BasisBasic:
			s.vstat[j] = vBasic
			nBasic++
		case BasisAtLower:
			switch {
			case !math.IsInf(cf.lo[j], -1):
				s.vstat[j] = vAtLower
			case !math.IsInf(cf.hi[j], 1):
				s.vstat[j] = vAtUpper
			default:
				s.vstat[j] = vFree
			}
		case BasisAtUpper:
			switch {
			case !math.IsInf(cf.hi[j], 1):
				s.vstat[j] = vAtUpper
			case !math.IsInf(cf.lo[j], -1):
				s.vstat[j] = vAtLower
			default:
				s.vstat[j] = vFree
			}
		case BasisFree:
			s.vstat[j] = vFree
		default:
			return false
		}
	}
	if nBasic != cf.m {
		return false
	}
	// Fill the basis with logicals first: a basic logical always pivots its
	// own row during factorization, so any singularity repair can only ever
	// substitute a row whose logical is nonbasic — the repair bookkeeping
	// below then never produces duplicate basis entries.
	pos := 0
	for j := cf.n; j < total; j++ {
		if s.vstat[j] == vBasic {
			s.basis[pos] = j
			pos++
		}
	}
	for j := 0; j < cf.n; j++ {
		if s.vstat[j] == vBasic {
			s.basis[pos] = j
			pos++
		}
	}
	if err := s.refactorize(); err != nil {
		return false
	}
	// Singularity repairs may have evicted basics in favour of logicals that
	// were already basic elsewhere; verify the basis is still a bijection.
	bijective := true
	for _, bj := range s.basis {
		if s.seen[bj] || s.vstat[bj] != vBasic {
			bijective = false
			break
		}
		s.seen[bj] = true
	}
	for _, bj := range s.basis {
		s.seen[bj] = false
	}
	if !bijective {
		return false
	}
	count := 0
	for j := 0; j < total; j++ {
		if s.vstat[j] == vBasic {
			count++
		}
	}
	return count == cf.m
}
