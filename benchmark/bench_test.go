package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	postcard "github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/sim"
)

func TestPercentileIsNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, ten beyond
		{99, 90, false},  // rank 90, nine beyond
		{100, 99, false}, // one beyond
		{1000, 99, true}, // rank 990, ten beyond
		{20, 50, true},   // rank 10, ten beyond
		{19, 50, false},  // rank 10, nine beyond
		{0, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 20, End: 40},
	}
	got := selfTimes(spans)
	// Children cover [10,70] and [90,100] of the parent: 70 of its 100.
	if p := got["parent"]; p.Self != 30 || p.Total != 100 || p.Count != 1 {
		t.Errorf("parent = %+v, want self 30 of total 100", p)
	}
	// Span 2 loses its grandchild's 20; spans 3 and 4 have no children.
	if c := got["child"]; c.Self != 20+40+30 || c.Total != 40+40+30 || c.Count != 3 {
		t.Errorf("child = %+v, want self 90 of total 110 over 3 spans", c)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	noisy := []float64{60, 80, 100, 120, 140}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, tight(100), tight(105), same},
		{"slower than the bound", lower, tight(100), tight(120), worse},
		{"faster than the bound", lower, tight(100), tight(80), better},
		{"direction flips for higher-is-better", higher, tight(100), tight(80), worse},
		{"spread wider than the bound", lower, noisy, tight(105), unresolved},
		{"noisy but every run beats every base run", lower, noisy, tight(40), better},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// writeResults writes a results file with the given op_p50_ms values for
// one workload.
func writeResults(t *testing.T, path string, h host, values ...float64) {
	t.Helper()
	f := resultsFile{Host: h}
	for i, v := range values {
		f.Runs = append(f.Runs, &runResult{
			Workload: "daemon-urgent", Seed: int64(i), Correct: true, Attempted: 1,
			Metrics: map[string]value{"op_p50_ms": {v, "ms"}},
		})
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareExitCodesAndHostCheck(t *testing.T) {
	dir := t.TempDir()
	base, slow, elsewhere := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeResults(t, base, thisHost(), 1.00, 1.01, 0.99)
	writeResults(t, slow, thisHost(), 1.50, 1.51, 1.49)
	other := thisHost()
	other.CPUs += 2
	writeResults(t, elsewhere, other, 1.00, 1.01, 0.99)

	var out bytes.Buffer
	anyWorse, err := compareFiles(&out, base, slow)
	if err != nil || !anyWorse {
		t.Fatalf("base vs slow: worse=%v err=%v, want a worse verdict", anyWorse, err)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "+50.0% of 1") {
		t.Errorf("report lacks the verdict or the ratio with its base:\n%s", out.String())
	}
	if anyWorse, err := compareFiles(&out, base, base); err != nil || anyWorse {
		t.Errorf("base vs itself: worse=%v err=%v", anyWorse, err)
	}
	if _, err := compareFiles(&out, base, elsewhere); err == nil {
		t.Error("files from different hosts compared without an error")
	}
	ctx := context.Background()
	if code := run(ctx, []string{"-compare", base, slow}); code != 1 {
		t.Errorf("-compare with a worse metric exited %d, want 1", code)
	}
	if code := run(ctx, []string{"-compare", base, base}); code != 0 {
		t.Errorf("-compare of equal files exited %d, want 0", code)
	}
	if code := run(ctx, []string{"-compare", base, elsewhere}); code != 2 {
		t.Errorf("-compare across hosts exited %d, want 2", code)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	w, err := workloadByName("daemon-urgent")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) []byte {
		rep, err := genDaemonRep(w, seed, time.Second, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep.encodeSchedule()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if repSeed(7, 0) == repSeed(7, 1) || repSeed(7, 0) == repSeed(8, 0) {
		t.Error("repetition seeds collide")
	}
}

// A decorator that embeds sim.Scheduler hides SolverStats and
// CloneScheduler, and the figure then reports zero LP work without an
// error. The timing decorator must be indistinguishable from the scheduler
// it wraps.
func TestTimedSchedulerForwardsStatsAndClone(t *testing.T) {
	w, err := workloadByName("figure-tolerant")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := figureConfig(w, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunFigure(bare)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := figureConfig(w, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := &schedCalls{ms: make(map[string][]float64), primary: "postcard"}
	for i, s := range wrapped.Schedulers {
		wrapped.Schedulers[i] = &timedScheduler{inner: s, calls: calls}
	}
	got, err := sim.RunFigure(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schedulers[0].Solver.Iterations == 0 {
		t.Fatal("decorated figure reports zero simplex iterations")
	}
	if !reflect.DeepEqual(got.Schedulers[0].Solver, want.Schedulers[0].Solver) {
		t.Errorf("decorated solver stats %+v differ from the bare scheduler's %+v", got.Schedulers[0].Solver, want.Schedulers[0].Solver)
	}
	if got.Schedulers[0].Final != want.Schedulers[0].Final {
		t.Errorf("decorated cost %+v differs from the bare scheduler's %+v", got.Schedulers[0].Final, want.Schedulers[0].Final)
	}
	if calls.calls != 6 || len(calls.batches) != 3 {
		t.Errorf("decorator saw %d calls and kept %d batches, want 6 and 3", calls.calls, len(calls.batches))
	}

	inner, err := postcard.SchedulerByName("postcard")
	if err != nil {
		t.Fatal(err)
	}
	d := &timedScheduler{inner: inner, calls: calls}
	if _, ok := sim.Scheduler(d).(sim.SolverStatsReporter); !ok {
		t.Error("decorator does not implement sim.SolverStatsReporter")
	}
	cloneable, ok := sim.Scheduler(d).(sim.CloneableScheduler)
	if !ok {
		t.Fatal("decorator does not implement sim.CloneableScheduler")
	}
	clone, ok := cloneable.CloneScheduler().(*timedScheduler)
	if !ok || clone == d || clone.inner == d.inner || clone.calls != calls {
		t.Errorf("clone %+v must wrap a fresh inner scheduler and share the collector", clone)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, built any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	fromCatalogue, _ := json.Marshal(buildManifest())
	if err := json.Unmarshal(fromCatalogue, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

// The smoke pass runs every workload through both modes with the
// in-process daemon and 2-slot figures, correctness checks included.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		dir := t.TempDir()
		if code := run(context.Background(), []string{"-smoke", "-trace", trace, "-out", dir}); code != 0 {
			t.Fatalf("-smoke -trace %s exited %d", trace, code)
		}
		f, err := readResults(filepath.Join(dir, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		defs := untraced
		if trace == "1" {
			defs = perLayer
		}
		if len(f.Runs) != len(workloads) {
			t.Fatalf("trace %s: %d runs recorded, want %d", trace, len(f.Runs), len(workloads))
		}
		for _, r := range f.Runs {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %s %s: correct=%v failed=%d attempted=%d %v", trace, r.Workload, r.Correct, r.Failed, r.Attempted, r.Problems)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("trace %s %s: %d metrics, want %d", trace, r.Workload, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("trace %s %s: metric %s missing or in unit %q", trace, r.Workload, d.Name, m.Unit)
				}
			}
		}
		if trace == "1" {
			spans, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
			if len(spans) != len(workloads) {
				t.Errorf("%d span files written, want %d", len(spans), len(workloads))
			}
		}
	}
}
