package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// runFigureAt runs one figure at the CI scale with the given worker count.
func runFigureAt(t *testing.T, workers int) *FigureResult {
	t.Helper()
	setting, err := netmodel.SettingByFigure(6)
	if err != nil {
		t.Fatal(err)
	}
	scale := CIScale()
	scale.Workers = workers
	res, err := RunFigure(FigureConfig{
		Setting:    setting,
		Scale:      scale,
		Schedulers: []Scheduler{&Postcard{}, &Flow{Variant: FlowLP}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunFigureParallelMatchesSequential is the driver's determinism
// guarantee: at CI scale, Workers: 8 and Workers: 1 must produce
// byte-identical aggregates — final-cost summaries, mean cost series, and
// drop counts. Only Elapsed (wall clock) may differ.
func TestRunFigureParallelMatchesSequential(t *testing.T) {
	seq := runFigureAt(t, 1)
	par := runFigureAt(t, 8)
	if len(seq.Schedulers) != len(par.Schedulers) {
		t.Fatalf("scheduler count %d vs %d", len(seq.Schedulers), len(par.Schedulers))
	}
	for i := range seq.Schedulers {
		s, p := seq.Schedulers[i], par.Schedulers[i]
		if s.Name != p.Name {
			t.Fatalf("scheduler %d: name %q vs %q", i, s.Name, p.Name)
		}
		// stats.Summary holds only comparable scalars; == is bitwise
		// equality of every float, which is exactly the guarantee.
		if s.Final != p.Final {
			t.Errorf("%s: final summary diverged:\nsequential %+v\nparallel   %+v", s.Name, s.Final, p.Final)
		}
		if len(s.MeanSeries) != len(p.MeanSeries) {
			t.Fatalf("%s: series length %d vs %d", s.Name, len(s.MeanSeries), len(p.MeanSeries))
		}
		for tt := range s.MeanSeries {
			if s.MeanSeries[tt] != p.MeanSeries[tt] {
				t.Errorf("%s: mean series diverged at slot %d: %v vs %v",
					s.Name, tt, s.MeanSeries[tt], p.MeanSeries[tt])
			}
		}
		if s.DroppedFiles != p.DroppedFiles || s.DroppedVolume != p.DroppedVolume {
			t.Errorf("%s: drops diverged: (%d, %v) vs (%d, %v)",
				s.Name, s.DroppedFiles, s.DroppedVolume, p.DroppedFiles, p.DroppedVolume)
		}
	}
	// The rendered artifacts must agree too (they exclude solve time).
	if seq.SeriesCSV() != par.SeriesCSV() {
		t.Error("SeriesCSV diverged between sequential and parallel runs")
	}
}

// TestRunFigureManyWorkersRace is a small, -race-targeted stress: many
// workers on a tight cell grid, with a progress callback that appends to a
// shared slice (legal because progress must be serialized by the driver).
func TestRunFigureManyWorkersRace(t *testing.T) {
	setting := netmodel.EvalSetting{Name: "race", Figure: 6, Capacity: 30, MaxT: 3}
	var lines []string
	res, err := RunFigure(FigureConfig{
		Setting: setting,
		Scale: Scale{
			Name: "race", DCs: 5, Slots: 4, Runs: 4,
			FilesMin: 1, FilesMax: 3, SizeMinGB: 10, SizeMaxGB: 60, Seed: 99,
			Workers: 16,
		},
		Schedulers: []Scheduler{&Postcard{}, &Flow{Variant: FlowLP}},
		Progress: func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(lines); got != 8 {
		t.Errorf("progress lines = %d, want 8 (one per cell)", got)
	}
	for _, s := range res.Schedulers {
		if s.Final.N != 4 {
			t.Errorf("%s: %d runs aggregated, want 4", s.Name, s.Final.N)
		}
	}
}

// notCloneable is a Scheduler without CloneScheduler; it also counts its
// invocations so the fallback path can be observed to run it sequentially.
type notCloneable struct {
	mu    sync.Mutex
	calls int
	inner Postcard
}

func (n *notCloneable) Name() string { return "not-cloneable" }

func (n *notCloneable) Schedule(ledger *netmodel.Ledger, files []netmodel.File, slot int) (*schedule.Schedule, error) {
	n.mu.Lock()
	n.calls++
	n.mu.Unlock()
	return n.inner.Schedule(ledger, files, slot)
}

// TestRunFigureNonCloneableFallsBackSequential: a scheduler that cannot be
// cloned must force sequential execution (no shared-state hazard), and the
// experiment must still complete with the caller's instance.
func TestRunFigureNonCloneableFallsBackSequential(t *testing.T) {
	setting := netmodel.EvalSetting{Name: "fallback", Figure: 6, Capacity: 30, MaxT: 3}
	cfg := FigureConfig{
		Setting: setting,
		Scale: Scale{
			Name: "fallback", DCs: 4, Slots: 3, Runs: 2,
			FilesMin: 1, FilesMax: 2, SizeMinGB: 10, SizeMaxGB: 40, Seed: 7,
			Workers: 8,
		},
		Schedulers: []Scheduler{&notCloneable{}, &Postcard{}},
	}
	if got := cfg.effectiveWorkers(4); got != 1 {
		t.Fatalf("effectiveWorkers = %d with a non-cloneable scheduler, want 1", got)
	}
	res, err := RunFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := cfg.Schedulers[0].(*notCloneable)
	if nc.calls == 0 {
		t.Error("non-cloneable scheduler instance was never invoked")
	}
	if res.Schedulers[0].Name != "not-cloneable" {
		t.Errorf("summary name %q", res.Schedulers[0].Name)
	}
}

// TestEffectiveWorkersBounds pins the worker-resolution rules.
func TestEffectiveWorkersBounds(t *testing.T) {
	cfg := FigureConfig{Schedulers: DefaultSchedulers()}
	cases := []struct {
		workers, cells, want int
	}{
		{0, 10, 1}, // unset -> sequential
		{1, 10, 1}, // explicit sequential
		{4, 10, 4}, // plain
		{16, 6, 6}, // capped at the cell count
		{16, 1, 1}, // single cell
	}
	for _, tc := range cases {
		cfg.Scale.Workers = tc.workers
		if got := cfg.effectiveWorkers(tc.cells); got != tc.want {
			t.Errorf("effectiveWorkers(workers=%d, cells=%d) = %d, want %d",
				tc.workers, tc.cells, got, tc.want)
		}
	}
}

// TestSchedulerClonesAreIndependent: clones must not share the Config
// pointer with the original (the whole point of cloning).
func TestSchedulerClonesAreIndependent(t *testing.T) {
	pc := &Postcard{
		Label:  "pc",
		Config: &core.Config{Storage: core.StorageNone},
	}
	cl := pc.CloneScheduler().(*Postcard)
	if cl.Name() != "pc" {
		t.Errorf("clone name %q", cl.Name())
	}
	if cl.Config == pc.Config {
		t.Error("postcard clone shares its Config pointer with the original")
	}
	if *cl.Config != *pc.Config {
		t.Errorf("postcard clone config not copied: %+v", cl.Config)
	}

	fl := &Flow{Variant: FlowTwoPhase}
	if fcl := fl.CloneScheduler().(*Flow); *fcl != *fl {
		t.Errorf("flow clone mismatch: %+v", fcl)
	}

	// Every built-in scheduler must be cloneable, or parallel experiment
	// runs silently degrade to sequential.
	for _, s := range DefaultSchedulers() {
		if _, ok := s.(CloneableScheduler); !ok {
			t.Errorf("default scheduler %s is not CloneableScheduler", s.Name())
		}
	}
}

// TestScaleValidatesWorkers: negative worker counts must be rejected.
func TestScaleValidatesWorkers(t *testing.T) {
	s := CIScale()
	s.Workers = -1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "worker") {
		t.Errorf("Validate() = %v, want negative-workers error", err)
	}
	s.Workers = 8
	if err := s.Validate(); err != nil {
		t.Errorf("Validate() = %v for Workers 8", err)
	}
}
