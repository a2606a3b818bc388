package admission

import (
	"fmt"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// ControllerSnapshot is the serializable state of a Controller: the open
// batch (slot, files, merged plan, provisional cost), the cumulative
// admission counters, the reservation buckets, and the background solver's
// warm-start state. Restoring it over a ledger rebuilt from its own
// snapshot resumes admission mid-horizon with decisions and republished
// plans identical to an uninterrupted controller.
type ControllerSnapshot struct {
	Slot      int                            `json:"slot"`
	Files     []netmodel.File                `json:"files,omitempty"`
	Plan      []schedule.Action              `json:"plan,omitempty"`
	BatchCost float64                        `json:"batch_cost"`
	Stats     Stats                          `json:"stats"`
	Reserved  *netmodel.ReservationsSnapshot `json:"reserved,omitempty"`
	Solver    *core.SolverSnapshot           `json:"solver,omitempty"`
	// Settled records that the LP's verdict on Files is already applied, so
	// a restored controller commits the batch without re-solving it, as the
	// snapshotted one would have. Absent in older snapshots: those re-solve.
	Settled bool `json:"settled,omitempty"`
}

// Snapshot captures the controller's full state. The returned value shares
// nothing with the controller. It reads the live solver, so no RepublishJob
// may be mid-Solve.
func (c *Controller) Snapshot() *ControllerSnapshot {
	snap := &ControllerSnapshot{
		Slot:      c.slot,
		Files:     append([]netmodel.File(nil), c.files...),
		BatchCost: c.batchCost,
		Settled:   c.settled,
		Stats:     c.stats,
		Reserved:  c.res.Snapshot(),
	}
	if c.plan != nil {
		snap.Plan = c.plan.Actions()
	}
	if c.solver != nil {
		snap.Solver = c.solver.Snapshot()
	}
	return snap
}

// RestoreController rebuilds a controller over the (already restored)
// ledger from a snapshot captured by Controller.Snapshot. The ledger must
// describe the same network and committed state the snapshot was captured
// under; the reservation buckets, open batch, counters, and solver
// warm-start state are restored so the next Republish/TakePlan behaves
// exactly as the snapshotted controller's would have. Solver state written
// by an older build, whose re-optimizer ran the arc model, does not fit the
// path master and is dropped (core.Solver.Restore): the first solve after
// such a restore runs cold. Config has no settings; cfg may be nil.
func RestoreController(ledger *netmodel.Ledger, _ *Config, snap *ControllerSnapshot) (*Controller, error) {
	if snap == nil {
		return nil, fmt.Errorf("admission: nil controller snapshot")
	}
	c, err := NewController(ledger, nil)
	if err != nil {
		return nil, err
	}
	if snap.Reserved != nil {
		if err := c.res.RestoreSnapshot(snap.Reserved); err != nil {
			return nil, fmt.Errorf("admission: restoring reservations: %w", err)
		}
	}
	c.slot = snap.Slot
	c.files = append([]netmodel.File(nil), snap.Files...)
	c.batchCost = snap.BatchCost
	c.settled = snap.Settled
	c.stats = snap.Stats
	if len(snap.Plan) > 0 {
		c.plan = &schedule.Schedule{}
		for _, a := range snap.Plan {
			c.plan.Add(a)
		}
	}
	if snap.Solver != nil {
		c.solver = newSolver()
		c.solver.Restore(ledger.Network(), snap.Solver)
		c.solverStats = c.solver.Stats()
	}
	return c, nil
}
