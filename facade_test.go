package postcard_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/core"
)

// TestClientOptionsMatchSolve pins the functional-options client against
// the core optimizer: a zero-option client must reproduce the default solve
// exactly, a storage option must reach the solver, and a path-pricing
// client must agree on the objective.
func TestClientOptionsMatchSolve(t *testing.T) {
	build := func() (*postcard.Ledger, []postcard.File) {
		nw, files, err := postcard.Fig3Topology(0)
		if err != nil {
			t.Fatal(err)
		}
		ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
		if err != nil {
			t.Fatal(err)
		}
		return ledger, files
	}

	ledger, files := build()
	ref, err := core.Solve(ledger, files, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	ledger, files = build()
	got, err := postcard.New().Solve(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != ref.Status || got.CostPerSlot != ref.CostPerSlot {
		t.Errorf("zero-option client: status %v cost %v, core.Solve %v %v",
			got.Status, got.CostPerSlot, ref.Status, ref.CostPerSlot)
	}

	for _, c := range []*postcard.Client{
		postcard.New(postcard.WithPricing(postcard.PricingPath)),
		postcard.New(postcard.WithPricing(postcard.PricingPath), postcard.WithWarmStart()),
	} {
		ledger, files = build()
		res, err := c.Solve(ledger, files, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != ref.Status {
			t.Fatalf("path client: status %v, want %v", res.Status, ref.Status)
		}
		if tol := 1e-3 * (1 + math.Abs(ref.CostPerSlot)); math.Abs(res.CostPerSlot-ref.CostPerSlot) > tol {
			t.Errorf("path client: cost %v, want %v", res.CostPerSlot, ref.CostPerSlot)
		}
	}

	ledger, files = build()
	noStore, err := core.Solve(ledger, files, 0, &core.Config{Storage: core.StorageNone})
	if err != nil {
		t.Fatal(err)
	}
	ledger, files = build()
	got, err = postcard.New(postcard.WithStoragePolicy(postcard.StorageNone)).Solve(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != noStore.Status || got.CostPerSlot != noStore.CostPerSlot {
		t.Errorf("no-storage client: status %v cost %v, core.Solve %v %v",
			got.Status, got.CostPerSlot, noStore.Status, noStore.CostPerSlot)
	}
	if noStore.CostPerSlot == ref.CostPerSlot {
		t.Errorf("storage policy changed nothing: cost %v either way", ref.CostPerSlot)
	}
}

// TestSchedulerRegistry checks that every registry entry builds a working
// scheduler whose Name matches its registry name, and that SchedulerByName
// agrees with the registry.
func TestSchedulerRegistry(t *testing.T) {
	infos := postcard.Schedulers()
	if len(infos) == 0 {
		t.Fatal("empty scheduler registry")
	}
	seen := make(map[string]bool)
	for _, info := range infos {
		if info.Name == "" || info.Description == "" || info.New == nil {
			t.Fatalf("incomplete registry entry %+v", info)
		}
		if seen[info.Name] {
			t.Fatalf("duplicate registry name %q", info.Name)
		}
		seen[info.Name] = true
		s := info.New()
		if s.Name() != info.Name {
			t.Errorf("registry %q builds scheduler named %q", info.Name, s.Name())
		}
		byName, err := postcard.SchedulerByName(info.Name)
		if err != nil {
			t.Errorf("SchedulerByName(%q): %v", info.Name, err)
		} else if byName.Name() != info.Name {
			t.Errorf("SchedulerByName(%q) builds %q", info.Name, byName.Name())
		}
	}
	for _, name := range postcard.SchedulerNames() {
		if !seen[name] {
			t.Errorf("SchedulerNames lists %q, absent from registry", name)
		}
	}
	if !seen["postcard-path"] {
		t.Error("registry is missing the postcard-path scheduler")
	}
	if _, err := postcard.SchedulerByName("no-such-scheduler"); err == nil {
		t.Error("SchedulerByName accepted an unknown name")
	}
}

// TestClientScheduler runs a registry path scheduler through one CI-scale
// figure cell to confirm the facade wiring end to end.
func TestClientScheduler(t *testing.T) {
	setting, err := postcard.SettingByFigure(6)
	if err != nil {
		t.Fatal(err)
	}
	scale := postcard.CIScale()
	scale.Runs = 1
	sched, err := postcard.SchedulerByName("postcard-path")
	if err != nil {
		t.Fatal(err)
	}
	res, err := postcard.RunFigure(postcard.FigureConfig{
		Setting:    setting,
		Scale:      scale,
		Schedulers: []postcard.Scheduler{sched, postcard.New(postcard.WithWarmStart()).Scheduler()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulers[0].Solver.PathSolves == 0 {
		t.Error("postcard-path scheduler recorded no path solves")
	}
	// Per-slot objectives agree exactly (see the sim package's shared-ledger
	// gate); the committed plans may sit on different vertices of the same
	// optimal face, so online trajectories drift slightly — bound it.
	path, arc := res.Schedulers[0].Final.Mean, res.Schedulers[1].Final.Mean
	if math.Abs(path-arc) > 0.05*(1+math.Abs(arc)) {
		t.Errorf("path scheduler mean cost %v strayed from warm arc %v", path, arc)
	}
}

// TestDuplicateFileIDRejected: a batch that repeats a file ID is malformed
// input, not demand that does not fit. Every registry scheduler keys
// per-file state by ID, so each must refuse such a batch with an error that
// names the ID, and never with ErrInfeasible, which would let the simulator
// shed the file and drop every copy of the ID while counting one.
func TestDuplicateFileIDRejected(t *testing.T) {
	nw, err := postcard.Complete(4, postcard.UniformPrices(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	files := []postcard.File{
		{ID: 7, Src: 0, Dst: 1, Size: 10, Release: 0, Deadline: 2},
		{ID: 7, Src: 2, Dst: 3, Size: 10, Release: 0, Deadline: 2},
	}
	for _, info := range postcard.Schedulers() {
		ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(10))
		if err != nil {
			t.Fatal(err)
		}
		_, err = info.New().Schedule(ledger, files, 0)
		switch {
		case err == nil:
			t.Errorf("%s: scheduled a batch that repeats file ID 7", info.Name)
		case errors.Is(err, postcard.ErrInfeasible):
			t.Errorf("%s: repeated file ID reported as infeasible: %v", info.Name, err)
		case !strings.Contains(err.Error(), "ID 7"):
			t.Errorf("%s: error does not name the repeated ID: %v", info.Name, err)
		}
	}
}
