package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/sim"
)

// batch is one slot's files as a scheduler was handed them, on the network
// of its simulation run.
type batch struct {
	Network *netmodel.Network
	Slot    int
	Files   []netmodel.File
	// Commit is false for a daemon's eager republish of a still-open slot:
	// the replay solves it but does not apply the plan.
	Commit bool
}

// horizon is how many slots ahead of Slot the batch's last deadline lies.
func (b batch) horizon() int {
	h := 0
	for _, f := range b.Files {
		h = max(h, f.Release+f.Deadline-b.Slot)
	}
	return h
}

// schedCalls collects what the timing decorators of one RunFigure call saw.
// Clones of a decorator share it, hence the lock.
type schedCalls struct {
	mu      sync.Mutex
	tr      *tracer
	parent  int                  // span of the RunFigure call
	ms      map[string][]float64 // Schedule durations per scheduler name
	errs    int                  // Schedule calls that returned an error
	calls   int
	batches []batch // successful calls of the primary scheduler, in order
	primary string
	busy    time.Duration // sum of all Schedule durations
}

// timedScheduler times every Schedule call of the scheduler it wraps. It
// forwards SolverStats and CloneScheduler explicitly: embedding the
// sim.Scheduler interface would hide both, and the figure would then report
// zero LP iterations without any error.
type timedScheduler struct {
	inner sim.Scheduler
	calls *schedCalls
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Schedule(ledger *netmodel.Ledger, files []netmodel.File, slot int) (*schedule.Schedule, error) {
	start := time.Now()
	plan, err := t.inner.Schedule(ledger, files, slot)
	end := time.Now()
	c, name := t.calls, t.inner.Name()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.busy += end.Sub(start)
	c.ms[name] = append(c.ms[name], ms(end.Sub(start)))
	c.tr.leaf(c.parent, slot, "sim.schedule."+name, start, end)
	switch {
	case err != nil:
		c.errs++
	case name == c.primary:
		c.batches = append(c.batches, batch{ledger.Network(), slot, append([]netmodel.File(nil), files...), true})
	}
	return plan, err
}

// SolverStats implements sim.SolverStatsReporter for the wrapped scheduler.
func (t *timedScheduler) SolverStats() core.SolveStats {
	if r, ok := t.inner.(sim.SolverStatsReporter); ok {
		return r.SolverStats()
	}
	return core.SolveStats{}
}

// CloneScheduler implements sim.CloneableScheduler: the clone wraps a clone
// of the inner scheduler and reports into the same collector. A scheduler
// that cannot be cloned is returned as is; the benchmark runs RunFigure
// sequentially, where clones are never requested.
func (t *timedScheduler) CloneScheduler() sim.Scheduler {
	if c, ok := t.inner.(sim.CloneableScheduler); ok {
		return &timedScheduler{inner: c.CloneScheduler(), calls: t.calls}
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// figureSetup is one set-up of a figure workload: the schedulers come from
// the registry and warmupSlots-slot figures of the instance run until warm
// has passed. It returns how long that took.
func figureSetup(w workloadSpec, seed int64, warm time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		cfg, err := figureConfig(w, seed, warmupSlots, 1)
		if err != nil {
			return 0, err
		}
		if _, err := sim.RunFigure(cfg); err != nil {
			return 0, fmt.Errorf("warm-up run: %w", err)
		}
		if d := time.Since(start); d >= warm {
			return d, nil
		}
	}
}

// figureRepResult is what one RunFigure repetition measured.
type figureRepResult struct {
	Wall    time.Duration
	AllocMB float64
	GCs     uint32
	Calls   *schedCalls
	Result  *sim.FigureResult
	Cost    float64 // Postcard scheduler's Final.Mean
	Direct  float64 // mean directCost of the runs
	Slots   int     // slots × runs
}

// runFigureRep runs one repetition of a figure workload: one timed
// sim.RunFigure call that starts from a collected heap.
func runFigureRep(w workloadSpec, seed int64, slots, runs int, tr *tracer) (*figureRepResult, error) {
	res := &figureRepResult{Slots: slots * runs}
	cfg, err := figureConfig(w, seed, slots, runs)
	if err != nil {
		return nil, err
	}
	res.Calls = &schedCalls{tr: tr, ms: make(map[string][]float64), primary: cfg.Schedulers[0].Name()}
	for i, s := range cfg.Schedulers {
		cfg.Schedulers[i] = &timedScheduler{inner: s, calls: res.Calls}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.Calls.parent = tr.reserve()
	start := time.Now()
	res.Result, err = sim.RunFigure(cfg)
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	tr.record(res.Calls.parent, 0, 0, "sim.runfigure", start, end)
	res.Wall = end.Sub(start)
	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	res.GCs = after.NumGC - before.NumGC
	res.Cost = res.Result.Schedulers[0].Final.Mean

	// The naive sender's cost, run by run (each run has its own prices).
	perRun := make(map[*netmodel.Network][]netmodel.File)
	var order []*netmodel.Network
	for _, b := range res.Calls.batches {
		if _, ok := perRun[b.Network]; !ok {
			order = append(order, b.Network)
		}
		perRun[b.Network] = append(perRun[b.Network], b.Files...)
	}
	for _, nw := range order {
		res.Direct += directCost(nw, perRun[nw]) / float64(len(order))
	}
	return res, nil
}
