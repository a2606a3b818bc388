// Package schedule defines the routing-and-scheduling plans produced by the
// Postcard optimizer and the baseline schedulers, together with an
// independent feasibility verifier. A schedule lists, per file and per time
// slot, how much data moves over which link (or is held in place — the
// paper's holdover M_ii). The verifier re-checks traffic conservation,
// capacity, and deadlines without reusing any optimizer machinery, so
// optimizer bugs cannot hide behind their own bookkeeping.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"github.com/interdc/postcard/internal/netmodel"
)

// Action moves Amount GB of file FileID from From to To during Slot.
// From == To is a holdover: the data stays stored at that datacenter for
// the slot (zero cost, no link usage).
type Action struct {
	FileID int
	From   netmodel.DC
	To     netmodel.DC
	Slot   int
	Amount float64
}

// IsHold reports whether the action is a storage holdover.
func (a Action) IsHold() bool { return a.From == a.To }

// String renders the action compactly.
func (a Action) String() string {
	if a.IsHold() {
		return fmt.Sprintf("file %d: hold %.3g at D%d during slot %d", a.FileID, a.Amount, int(a.From), a.Slot)
	}
	return fmt.Sprintf("file %d: send %.3g on D%d->D%d during slot %d", a.FileID, a.Amount, int(a.From), int(a.To), a.Slot)
}

// Schedule is an ordered collection of actions.
type Schedule struct {
	actions []Action
}

// Add appends an action. Zero amounts are dropped.
func (s *Schedule) Add(a Action) {
	if a.Amount == 0 {
		return
	}
	s.actions = append(s.actions, a)
}

// Len reports the number of actions.
func (s *Schedule) Len() int { return len(s.actions) }

// Actions returns the actions sorted by (slot, file, from, to). The
// returned slice is a copy.
func (s *Schedule) Actions() []Action {
	out := make([]Action, len(s.actions))
	copy(out, s.actions)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		if out[i].FileID != out[j].FileID {
			return out[i].FileID < out[j].FileID
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// TransferVolume reports the total non-holdover volume scheduled on link
// i->j during slot, summed over files.
func (s *Schedule) TransferVolume(i, j netmodel.DC, slot int) float64 {
	total := 0.0
	for _, a := range s.actions {
		if !a.IsHold() && a.From == i && a.To == j && a.Slot == slot {
			total += a.Amount
		}
	}
	return total
}

// HoldVolume reports the total volume held at datacenter d during slot.
func (s *Schedule) HoldVolume(d netmodel.DC, slot int) float64 {
	total := 0.0
	for _, a := range s.actions {
		if a.IsHold() && a.From == d && a.Slot == slot {
			total += a.Amount
		}
	}
	return total
}

// TotalTransferred reports the total link-GB moved (excluding holds).
func (s *Schedule) TotalTransferred() float64 {
	total := 0.0
	for _, a := range s.actions {
		if !a.IsHold() {
			total += a.Amount
		}
	}
	return total
}

// MaxSlot reports the largest slot referenced, or -1 for an empty schedule.
func (s *Schedule) MaxSlot() int {
	maxSlot := -1
	for _, a := range s.actions {
		if a.Slot > maxSlot {
			maxSlot = a.Slot
		}
	}
	return maxSlot
}

// Apply records every transfer action onto the ledger (holds are free and
// not recorded). It is not atomic: on error the ledger may hold a prefix,
// so callers should treat an error as fatal for the run.
func (s *Schedule) Apply(ledger *netmodel.Ledger) error {
	for _, a := range s.actions {
		if a.IsHold() {
			continue
		}
		if err := ledger.Add(a.From, a.To, a.Slot, a.Amount); err != nil {
			return fmt.Errorf("schedule: applying %v: %w", a, err)
		}
	}
	return nil
}

// Cost reports the ledger's cost per slot once s is committed, without
// modifying the ledger.
func (s *Schedule) Cost(ledger *netmodel.Ledger) (float64, error) {
	trial := ledger.Clone()
	if err := s.Apply(trial); err != nil {
		return 0, err
	}
	return trial.CostPerSlot(), nil
}

// VerifyConfig parameterizes Verify.
type VerifyConfig struct {
	// Residual reports the available capacity of link i->j at slot, in GB,
	// before this schedule is applied. Nil means unconstrained.
	Residual func(i, j netmodel.DC, slot int) float64
	// Tol is the numerical tolerance in GB; defaults to 1e-6.
	Tol float64
}

// Verify checks the schedule end to end against the network and file set:
//
//  1. every action references a known file, an existing link (or a valid
//     holdover), lies inside the file's [release, release+deadline) window,
//     and has a nonnegative amount;
//  2. per file, traffic is conserved: everything leaving the source at the
//     release layer equals the file size, everything reaching the
//     destination by the deadline layer equals the file size, and at every
//     intermediate (datacenter, layer) inflow equals outflow;
//  3. the per-slot, per-link sum over files respects Residual.
//
// It is implemented by replaying node balances, independent of the LP.
func Verify(s *Schedule, nw *netmodel.Network, files []netmodel.File, cfg VerifyConfig) error {
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	byID := make(map[int]netmodel.File, len(files))
	for _, f := range files {
		if _, dup := byID[f.ID]; dup {
			return fmt.Errorf("schedule: duplicate file ID %d", f.ID)
		}
		byID[f.ID] = f
	}
	// balance[fileID][dc] at the "current layer" while sweeping slots.
	type key struct {
		file int
		dc   netmodel.DC
	}
	balance := make(map[key]float64, len(files))
	for _, f := range files {
		balance[key{f.ID, f.Src}] = f.Size
	}
	actions := s.Actions()
	// Group actions by slot.
	bySlot := make(map[int][]Action)
	minSlot, maxSlot := math.MaxInt32, -1
	for _, a := range actions {
		f, ok := byID[a.FileID]
		if !ok {
			return fmt.Errorf("schedule: action references unknown file %d", a.FileID)
		}
		if a.Amount < -tol {
			return fmt.Errorf("schedule: negative amount in %v", a)
		}
		if !a.IsHold() && !nw.HasLink(a.From, a.To) {
			return fmt.Errorf("schedule: action on non-existent link: %v", a)
		}
		if a.Slot < f.Release || a.Slot >= f.Release+f.Deadline {
			return fmt.Errorf("schedule: %v outside file window [%d, %d)", a, f.Release, f.Release+f.Deadline)
		}
		bySlot[a.Slot] = append(bySlot[a.Slot], a)
		if a.Slot < minSlot {
			minSlot = a.Slot
		}
		if a.Slot > maxSlot {
			maxSlot = a.Slot
		}
	}
	for _, f := range files {
		if f.Release < minSlot {
			minSlot = f.Release
		}
		if f.Release+f.Deadline-1 > maxSlot {
			maxSlot = f.Release + f.Deadline - 1
		}
	}
	if maxSlot < 0 {
		maxSlot = minSlot - 1 // no slots to sweep
	}
	// Sweep slots forward, moving balances.
	for slot := minSlot; slot <= maxSlot; slot++ {
		// Link usage this slot for the capacity check.
		linkUse := make(map[netmodel.Link]float64)
		// Outflow per (file, dc) this slot.
		out := make(map[key]float64)
		for _, a := range bySlot[slot] {
			out[key{a.FileID, a.From}] += a.Amount
			if !a.IsHold() {
				linkUse[netmodel.Link{From: a.From, To: a.To}] += a.Amount
			}
		}
		if cfg.Residual != nil {
			for l, use := range linkUse {
				if avail := cfg.Residual(l.From, l.To, slot); use > avail+tol {
					return fmt.Errorf("schedule: link %v slot %d carries %.6g > residual %.6g", l, slot, use, avail)
				}
			}
		}
		// Every file must move its entire balance every slot it is live
		// (holdovers count as movement), except after its deadline layer.
		for k, have := range balance {
			f := byID[k.file]
			if slot < f.Release || slot >= f.Release+f.Deadline {
				continue
			}
			moved := out[k]
			if math.Abs(moved-have) > tol {
				return fmt.Errorf("schedule: file %d at D%d slot %d moves %.6g of balance %.6g",
					k.file, int(k.dc), slot, moved, have)
			}
		}
		// Detect moves of data that is not there.
		for k, moved := range out {
			if have := balance[k]; moved > have+tol {
				return fmt.Errorf("schedule: file %d moves %.6g from D%d at slot %d but only %.6g present",
					k.file, moved, int(k.dc), slot, have)
			}
		}
		// Advance balances to the next layer.
		for k := range balance {
			f := byID[k.file]
			if slot < f.Release || slot >= f.Release+f.Deadline {
				continue
			}
			balance[k] -= out[key{k.file, k.dc}]
			if balance[k] < tol {
				delete(balance, k)
			}
		}
		for _, a := range bySlot[slot] {
			balance[key{a.FileID, a.To}] += a.Amount
		}
	}
	// Everything must have arrived.
	for _, f := range files {
		got := balance[key{f.ID, f.Dst}]
		if math.Abs(got-f.Size) > tol*(1+f.Size) {
			return fmt.Errorf("schedule: file %d delivered %.6g of %.6g GB to D%d",
				f.ID, got, f.Size, int(f.Dst))
		}
		delete(balance, key{f.ID, f.Dst})
	}
	for k, v := range balance {
		if v > tol {
			return fmt.Errorf("schedule: %.6g GB of file %d stranded at D%d", v, k.file, int(k.dc))
		}
	}
	return nil
}
