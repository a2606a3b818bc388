package sim

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/lp"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/stats"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/sim -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenResult builds a fully deterministic FigureResult by hand (real
// experiments carry wall-clock solve times; here Elapsed is pinned) so the
// rendered Table and SeriesCSV are stable byte-for-byte.
func goldenResult() *FigureResult {
	return &FigureResult{
		Setting: netmodel.EvalSetting{
			Name: "limited capacity, urgent", Figure: 6, Capacity: 30, MaxT: 3,
		},
		Scale: Scale{
			Name: "golden", DCs: 8, Slots: 5, Runs: 3,
			FilesMin: 1, FilesMax: 5, SizeMinGB: 10, SizeMaxGB: 100, Seed: 2012,
		},
		Schedulers: []SchedulerSummary{
			{
				Name: "postcard",
				Final: stats.Summary{
					N: 3, Mean: 2450.125, StdDev: 110.5, CI95Half: 274.4875,
					Min: 2300.25, Max: 2520.5,
				},
				MeanSeries:    []float64{180.5, 655.25, 1200, 1980.625, 2450.125},
				DroppedFiles:  0,
				DroppedVolume: 0,
				Elapsed:       1234 * time.Millisecond,
				Solver: core.SolveStats{
					Solves: 15, WarmSolves: 12, GraphReuses: 12,
					Counters: core.Counters{
						Work: lp.Work{
							Iterations: 4210, Phase1Iter: 380,
							SparseSolves: 900, DenseSolves: 300,
							SolveNNZ: 2400, SolveDim: 9600,
							DevexResets: 21, DualRecomputes: 154,
							ColGenRounds: 38, ColGenColumns: 960, ColGenUniverse: 5400,
						},
						VarUniverse: 7200, PrunedVars: 1800, PrunedRows: 450,
					},
				},
			},
			{
				Name: "flow-based",
				Final: stats.Summary{
					N: 3, Mean: 2890.75, StdDev: 150.25, CI95Half: 373.25,
					Min: 2700, Max: 3000.5,
				},
				MeanSeries:    []float64{210.125, 790.5, 1455.375, 2310.0625, 2890.75},
				DroppedFiles:  2,
				DroppedVolume: 155.75,
				Elapsed:       567 * time.Millisecond,
			},
		},
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from golden file (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestFigureTableGolden pins the rendered experiment table byte-for-byte.
func TestFigureTableGolden(t *testing.T) {
	checkGolden(t, "figure6-table.golden", goldenResult().Table())
}

// TestSeriesCSVGolden pins the per-slot cost series CSV byte-for-byte.
func TestSeriesCSVGolden(t *testing.T) {
	checkGolden(t, "figure6-series.golden.csv", goldenResult().SeriesCSV())
}

// TestSolverTableGolden pins the rendered LP-work table byte-for-byte,
// including the model-sparsity columns (pruned%, cg-rnds, gen%). The
// flow-based row reports no solver work, so the golden file also pins the
// skip behavior: only instrumented schedulers appear.
func TestSolverTableGolden(t *testing.T) {
	checkGolden(t, "figure6-solver.golden", goldenResult().SolverTable())
}
