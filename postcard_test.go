package postcard_test

import (
	"math"
	"strings"
	"testing"

	"github.com/interdc/postcard"
)

// registryCost plans files with the named registry scheduler on an empty
// ledger over nw and returns the cost per interval once the plan is
// committed.
func registryCost(t *testing.T, name string, nw *postcard.Network, files []postcard.File) float64 {
	t.Helper()
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := postcard.SchedulerByName(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(ledger); err != nil {
		t.Fatal(err)
	}
	return ledger.CostPerSlot()
}

// TestPublicAPIQuickstart exercises the facade end to end on the paper's
// Fig. 3 example, asserting the three numbers from Sec. V.
func TestPublicAPIQuickstart(t *testing.T) {
	nw, files, err := postcard.Fig3Topology(0)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := postcard.New().Solve(ledger, files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != postcard.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if want := 30 + 8.0/3.0; math.Abs(res.CostPerSlot-want) > 1e-5 {
		t.Errorf("postcard cost = %v, want %v", res.CostPerSlot, want)
	}
	if flow := registryCost(t, "flow-based", nw, files); math.Abs(flow-50) > 1e-5 {
		t.Errorf("flow cost = %v, want 50", flow)
	}
	if direct := registryCost(t, "direct", nw, files); math.Abs(direct-52) > 1e-6 {
		t.Errorf("direct cost = %v, want 52", direct)
	}
	if err := postcard.VerifySchedule(res.Schedule, nw, files, postcard.VerifyConfig{}); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := res.Schedule.Apply(ledger); err != nil {
		t.Fatal(err)
	}
	if got := ledger.CostPerSlot(); math.Abs(got-res.CostPerSlot) > 1e-5 {
		t.Errorf("ledger cost %v != LP cost %v", got, res.CostPerSlot)
	}
}

func TestPublicAPIDOT(t *testing.T) {
	nw, _, err := postcard.Fig1Topology()
	if err != nil {
		t.Fatal(err)
	}
	dot, err := postcard.TimeExpandedDOT(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "d0@0") {
		t.Errorf("unexpected DOT output:\n%s", dot)
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	gen, err := postcard.NewUniformWorkload(postcard.UniformWorkloadConfig{
		NumDCs: 4, MinFiles: 1, MaxFiles: 2,
		MinSizeGB: 1, MaxSizeGB: 5, MaxDeadline: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := postcard.RecordTrace(gen, 4)
	var sb strings.Builder
	if err := trace.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := postcard.ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != len(trace.Files) {
		t.Errorf("round trip lost files: %d != %d", len(got.Files), len(trace.Files))
	}
}

func TestPublicAPISettings(t *testing.T) {
	if got := len(postcard.EvalSettings()); got != 4 {
		t.Errorf("settings = %d, want 4", got)
	}
	if err := postcard.PaperScale().Validate(); err != nil {
		t.Error(err)
	}
	if err := postcard.CIScale().Validate(); err != nil {
		t.Error(err)
	}
}

// TestBenchScaleFigureShape is a fast sanity check that the benchmark-scale
// experiment still exhibits the paper's headline contrast: Postcard's
// advantage over flow-based grows when moving from ample capacity with
// urgent files (Fig. 4) to limited capacity with delay-tolerant files
// (Fig. 7).
func TestBenchScaleFigureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	scale := postcard.Scale{
		Name: "shape", DCs: 6, Slots: 8, Runs: 2,
		FilesMin: 2, FilesMax: 5, SizeMinGB: 10, SizeMaxGB: 100, Seed: 2012,
	}
	ratio := func(fig int) float64 {
		setting, err := postcard.SettingByFigure(fig)
		if err != nil {
			t.Fatal(err)
		}
		res, err := postcard.RunFigure(postcard.FigureConfig{
			Setting: setting,
			Scale:   scale,
			Schedulers: []postcard.Scheduler{
				&postcard.PostcardScheduler{},
				&postcard.FlowScheduler{Variant: postcard.FlowLP},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedulers[0].Final.Mean / res.Schedulers[1].Final.Mean
	}
	r4 := ratio(4)
	r7 := ratio(7)
	t.Logf("postcard/flow cost ratio: fig4 %.3f, fig7 %.3f", r4, r7)
	if r7 >= r4 {
		t.Errorf("expected postcard's relative cost to improve from fig4 (%.3f) to fig7 (%.3f)", r4, r7)
	}
	if r7 >= 1 {
		t.Errorf("expected postcard to beat flow-based on fig7, ratio %.3f", r7)
	}
}

// TestCIScaleFigureCosts pins the CI-scale costs of Figs. 4 and 6 (the
// numbers `postcard-figs -fig N -q` prints) for the four Postcard pipelines
// and the flow-based baseline, and of Fig. 7 for postcard-path, to 1e-9
// relative, together with the files each scheduler dropped. A change that
// moves any of them changes the published results and must update
// EXPERIMENTS.md together with this table. The other delay-tolerant runs
// (Fig. 5, and Fig. 7's arc pipelines) take tens of seconds and are left to
// CI's fig5-smoke job.
func TestCIScaleFigureCosts(t *testing.T) {
	checkFigureCosts(t, 4, map[string]figurePin{
		"postcard":      {2681.8645141596094, 0},
		"postcard-warm": {2681.86451415961, 0},
		"postcard-path": {2694.7753064433973, 0},
		"postcard-fast": {2694.7753064433973, 0},
		"flow-based":    {2480.5715126183686, 0},
	})
	checkFigureCosts(t, 6, map[string]figurePin{
		"postcard":      {2778.419177285214, 0},
		"postcard-warm": {2778.7836099984197, 0},
		"postcard-path": {2775.766896737802, 0},
		"postcard-fast": {2085.006595230144, 29},
		"flow-based":    {2634.263812167954, 0},
	})
	checkFigureCosts(t, 7, map[string]figurePin{
		"postcard-path": {1145.740346821966, 0},
	})
}

// TestCIScaleFlowBaselineCosts pins the CI-scale run costs (1e-9 relative)
// and drops of the four flow baselines on Figs. 4-7, the numbers
// `postcard-figs -fig N -q -schedulers flow-based,flow-two-phase,flow-greedy,direct`
// prints. All four run in about two seconds together, so unlike the
// Postcard pipelines they are pinned on the delay-tolerant figures too.
func TestCIScaleFlowBaselineCosts(t *testing.T) {
	checkFigureCosts(t, 4, map[string]figurePin{
		"flow-based":     {2480.5715126183686, 0},
		"flow-two-phase": {2485.077399997073, 0},
		"flow-greedy":    {3167.7518731774653, 0},
		"direct":         {4356.9527632546724, 0},
	})
	checkFigureCosts(t, 5, map[string]figurePin{
		"flow-based":     {1363.4010164194437, 0},
		"flow-two-phase": {1366.7386894765746, 0},
		"flow-greedy":    {1440.7812329006733, 0},
		"direct":         {1762.4646780903443, 0},
	})
	checkFigureCosts(t, 6, map[string]figurePin{
		"flow-based":     {2634.263812167954, 0},
		"flow-two-phase": {2679.897876672223, 0},
		"flow-greedy":    {3414.3281225529172, 0},
		"direct":         {2714.0477469190891, 45},
	})
	checkFigureCosts(t, 7, map[string]figurePin{
		"flow-based":     {1414.464980172217, 0},
		"flow-two-phase": {1417.9260565451966, 0},
		"flow-greedy":    {1496.3064162973756, 0},
		"direct":         {1735.0669750231907, 1},
	})
}

// figurePin is one scheduler's pinned CI-scale run cost and drop count.
type figurePin struct {
	cost    float64
	dropped int
}

// checkFigureCosts runs CI-scale figure fig with the schedulers named in
// want and checks each run cost, to 1e-9 relative, and drop count.
func checkFigureCosts(t *testing.T, fig int, want map[string]figurePin) {
	t.Helper()
	setting, err := postcard.SettingByFigure(fig)
	if err != nil {
		t.Fatal(err)
	}
	var scheds []postcard.Scheduler
	for name := range want {
		s, err := postcard.SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	res, err := postcard.RunFigure(postcard.FigureConfig{
		Setting: setting, Scale: postcard.CIScale(), Schedulers: scheds,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Schedulers {
		w := want[s.Name]
		if math.Abs(s.Final.Mean-w.cost) > 1e-9*w.cost || s.DroppedFiles != w.dropped {
			t.Errorf("fig %d %s: cost %v with %d dropped, want %v with %d",
				fig, s.Name, s.Final.Mean, s.DroppedFiles, w.cost, w.dropped)
		}
	}
}
