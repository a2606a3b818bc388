package main

import (
	"math"
	"testing"

	"github.com/interdc/postcard"
)

func TestLoadInstanceFromFile(t *testing.T) {
	nw, files, err := loadInstance("testdata/relay.json")
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumDCs() != 3 || len(files) != 1 {
		t.Fatalf("got %d DCs, %d files", nw.NumDCs(), len(files))
	}
	if files[0].Size != 12 || files[0].Deadline != 3 {
		t.Errorf("file fields lost: %+v", files[0])
	}
}

func TestLoadInstanceDefault(t *testing.T) {
	nw, files, err := loadInstance("")
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumDCs() != 4 || len(files) != 2 {
		t.Errorf("default instance should be Fig. 3: %d DCs, %d files", nw.NumDCs(), len(files))
	}
}

func TestLoadInstanceMissingFile(t *testing.T) {
	if _, _, err := loadInstance("testdata/nope.json"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestSolveDispatch(t *testing.T) {
	// Every registry name must solve offline.
	for _, name := range postcard.SchedulerNames() {
		nw, files, err := loadInstance("testdata/relay.json")
		if err != nil {
			t.Fatal(err)
		}
		ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
		if err != nil {
			t.Fatal(err)
		}
		plan, cost, status, _, err := solve(name, ledger, files, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if status != postcard.StatusOptimal {
			t.Errorf("%s: status %v", name, status)
			continue
		}
		if plan.Len() == 0 || cost <= 0 {
			t.Errorf("%s: empty plan or cost %v", name, cost)
		}
	}
	if _, _, _, _, err := solve("bogus", nil, nil, 0); err == nil {
		t.Error("expected error for unknown scheduler")
	}
}

func TestRelayInstanceOptimum(t *testing.T) {
	nw, files, err := loadInstance("testdata/relay.json")
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	_, cost, status, _, err := solve("postcard", ledger, files, 0)
	if err != nil || status != postcard.StatusOptimal {
		t.Fatalf("solve: %v %v", err, status)
	}
	// 12 GB over 0->1->2 pipelined at 6/slot: 2*6 + 3*6 = 30.
	if math.Abs(cost-30) > 1e-5 {
		t.Errorf("cost = %v, want 30", cost)
	}
}
