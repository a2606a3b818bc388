package sim

import (
	"errors"
	"fmt"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/telemetry"
	"github.com/interdc/postcard/internal/workload"
)

// RunStats summarizes one simulation run of a single scheduler.
type RunStats struct {
	// CostSeries[t] is the cost per interval (sum over links of price *
	// charged volume) after all files generated up to slot t are committed.
	CostSeries []float64
	// FinalCostPerSlot is the last element of CostSeries (0 for 0 slots).
	FinalCostPerSlot float64
	// ScheduledFiles and ScheduledVolume count committed demand.
	ScheduledFiles  int
	ScheduledVolume float64
	// DroppedFiles and DroppedVolume count demand shed because no feasible
	// plan existed even after shedding (see Run).
	DroppedFiles  int
	DroppedVolume float64
	// Elapsed is the total scheduling time.
	Elapsed time.Duration
	// Solver is the LP work this run performed, when the scheduler reports
	// it (see SolverStatsReporter); the zero value otherwise. It is a
	// per-run delta, not a cumulative counter, so per-run values sum
	// deterministically across any execution order.
	Solver core.SolveStats
}

// DropRate reports the fraction of offered volume that was shed.
func (s *RunStats) DropRate() float64 {
	total := s.ScheduledVolume + s.DroppedVolume
	if total == 0 {
		return 0
	}
	return s.DroppedVolume / total
}

// Run executes one online simulation: for each slot in [0, slots), files
// are drawn from gen and handed to sched with the current ledger state;
// the resulting plan is committed. When a slot's demand is infeasible the
// engine sheds the most bandwidth-hungry file and retries, recording the
// shed volume (the paper's evaluation never hits this on its settings, but
// an engine must not wedge on pathological draws).
//
// The ledger must be empty (or deliberately pre-seeded); it is mutated in
// place so the caller can inspect it afterwards.
func Run(ledger *netmodel.Ledger, sched Scheduler, gen workload.Generator, slots int) (*RunStats, error) {
	if slots < 0 {
		return nil, fmt.Errorf("sim: negative slot count %d", slots)
	}
	stats := &RunStats{CostSeries: make([]float64, 0, slots)}
	var solverBase core.SolveStats
	reporter, hasReporter := sched.(SolverStatsReporter)
	if hasReporter {
		solverBase = reporter.SolverStats()
	}
	start := time.Now()
	for t := 0; t < slots; t++ {
		files := gen.FilesAt(t)
		remaining := files
		for {
			plan, err := sched.Schedule(ledger, remaining, t)
			if err == nil {
				if err := plan.Apply(ledger); err != nil {
					return nil, fmt.Errorf("sim: committing slot %d: %w", t, err)
				}
				for _, f := range remaining {
					stats.ScheduledFiles++
					stats.ScheduledVolume += f.Size
				}
				break
			}
			if !errors.Is(err, ErrInfeasible) {
				return nil, fmt.Errorf("sim: slot %d: %w", t, err)
			}
			if len(remaining) == 0 {
				return nil, fmt.Errorf("sim: slot %d infeasible with no files: %w", t, err)
			}
			// Shed the most demanding file and retry.
			ordered := shedOrder(remaining)
			shed := ordered[0]
			stats.DroppedFiles++
			stats.DroppedVolume += shed.Size
			next := make([]netmodel.File, 0, len(remaining)-1)
			for _, f := range remaining {
				if f.ID != shed.ID {
					next = append(next, f)
				}
			}
			remaining = next
		}
		stats.CostSeries = append(stats.CostSeries, ledger.CostPerSlot())
	}
	stats.Elapsed = time.Since(start)
	if hasReporter {
		stats.Solver = reporter.SolverStats()
		telemetry.Sub(&stats.Solver, solverBase)
	}
	if n := len(stats.CostSeries); n > 0 {
		stats.FinalCostPerSlot = stats.CostSeries[n-1]
	}
	return stats, nil
}
