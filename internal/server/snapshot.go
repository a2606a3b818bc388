package server

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/netmodel"
)

// SnapshotVersion guards the on-disk format. Bump on incompatible change.
const SnapshotVersion = 1

// Snapshot is the full serializable server state: topology and pricing
// (as an Instance), the charging ledger, the admission controller with its
// open batch and warm solver basis, and the per-transfer plan records. A
// server restored from a snapshot resumes its remaining horizon with
// decisions and committed plans bit-identical to an uninterrupted run
// (floats round-trip exactly through JSON; only the solver's GraphReuses
// counter may differ, as the recycled time-expanded graph is rebuilt).
type Snapshot struct {
	Version       int                           `json:"version"`
	Slot          int                           `json:"slot"`
	NextFileID    int                           `json:"next_file_id"`
	SlotsAdvanced int                           `json:"slots_advanced"`
	Reloads       int                           `json:"pricing_reloads"`
	Instance      *netmodel.Instance            `json:"instance"`
	Ledger        *netmodel.LedgerSnapshot      `json:"ledger"`
	Controller    *admission.ControllerSnapshot `json:"controller"`
	Plans         []PlanRecord                  `json:"plans,omitempty"`
}

// Snapshot captures the server's full state. It reads the LP solver's
// warm-start state, so it waits for a solve in flight.
func (s *Server) Snapshot() *Snapshot {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Server) snapshotLocked() *Snapshot {
	snap := &Snapshot{
		Version:       SnapshotVersion,
		Slot:          s.slot,
		NextFileID:    s.nextID,
		SlotsAdvanced: s.slotsAdvanced,
		Reloads:       s.reloads,
		Instance:      netmodel.InstanceOf(s.nw, nil),
		Ledger:        s.ledger.Snapshot(),
		Controller:    s.ctrl.Snapshot(),
	}
	for _, id := range s.sortedPlanIDsLocked() {
		snap.Plans = append(snap.Plans, *s.plans[id])
	}
	return snap
}

// WriteSnapshot writes the state snapshot to path (POST /v1/snapshot).
func (s *Server) WriteSnapshot(path string) error {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.writeSnapshotLocked(path)
}

// writeSnapshotLocked encodes the snapshot as compact JSON straight into a
// temporary file beside path, syncs it to stable storage, and only then
// renames it over path, so a crash at any point leaves either the previous
// snapshot or the complete new one. On failure the temporary file is
// removed.
func (s *Server) writeSnapshotLocked(path string) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close() // already failed; the close error adds nothing
			os.Remove(tmp)
		}
	}()
	if err := json.NewEncoder(f).Encode(s.snapshotLocked()); err != nil {
		return fmt.Errorf("server: encoding snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("server: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("server: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("server: publishing snapshot: %w", err)
	}
	return nil
}

// Restore builds a server from a snapshot, overriding the snapshot's
// embedded topology/pricing with nothing — the network is rebuilt from the
// snapshot's Instance so the restored solver basis keys stay aligned with
// it. cfg's Network field is ignored; all other fields apply.
func Restore(cfg Config, snap *Snapshot) (*Server, error) {
	if snap == nil {
		return nil, fmt.Errorf("server: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("server: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if snap.Instance == nil || snap.Ledger == nil || snap.Controller == nil {
		return nil, fmt.Errorf("server: snapshot missing instance, ledger, or controller")
	}
	nw, _, err := snap.Instance.Build()
	if err != nil {
		return nil, fmt.Errorf("server: rebuilding network: %w", err)
	}
	ledger, err := netmodel.LedgerFromSnapshot(nw, snap.Ledger)
	if err != nil {
		return nil, err
	}
	ctrl, err := admission.RestoreController(ledger, nil, snap.Controller)
	if err != nil {
		return nil, err
	}
	cfg.Network = nw
	cfg.Charging = ledger.Scheme()
	s := &Server{
		cfg:           cfg,
		nw:            nw,
		ledger:        ledger,
		ctrl:          ctrl,
		slot:          snap.Slot,
		nextID:        snap.NextFileID,
		plans:         make(map[int]*PlanRecord, len(snap.Plans)),
		slotsAdvanced: snap.SlotsAdvanced,
		reloads:       snap.Reloads,
	}
	if s.nextID < 1 {
		s.nextID = 1
	}
	for i := range snap.Plans {
		rec := snap.Plans[i]
		s.plans[rec.FileID] = &rec
	}
	s.startClock()
	return s, nil
}

// RestoreFile reads a snapshot file and restores a server from it.
func RestoreFile(cfg Config, path string) (*Server, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: reading snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("server: decoding snapshot: %w", err)
	}
	return Restore(cfg, &snap)
}
