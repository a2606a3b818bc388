// Command postcard-figs regenerates the paper's evaluation figures
// (Sec. VII, Figs. 4-7): average cost per time interval with 95% confidence
// intervals, Postcard versus the flow-based approach, under four
// capacity/deadline settings.
//
// Usage:
//
//	postcard-figs                  # all four figures at CI scale
//	postcard-figs -fig 6           # just Fig. 6
//	postcard-figs -scale paper     # the paper's full 20-DC, 100-slot, 10-run scale
//	postcard-figs -schedulers postcard,flow-based,flow-greedy,direct
//	postcard-figs -schedulers help # list every registered scheduler
//	postcard-figs -csv out/        # also write per-slot cost series as CSV
//	postcard-figs -workers 1       # force sequential execution
//
// Independent (run, scheduler) simulation cells run on a worker pool
// (-workers, default the number of CPUs); the aggregated output is
// bit-identical regardless of the worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "postcard-figs:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	fig := flag.Int("fig", 0, "figure to regenerate (4-7), 0 = all")
	scaleName := flag.String("scale", "ci", "experiment scale: ci | paper")
	schedList := flag.String("schedulers", "postcard,flow-based", cliutil.SchedulerFlagUsage)
	csvDir := flag.String("csv", "", "directory to write per-slot cost series CSVs into")
	uniformDeadline := flag.Bool("uniform-deadline", false, "draw deadlines from U[1, maxT] instead of fixing them at maxT")
	runs := flag.Int("runs", 0, "override number of runs")
	slots := flag.Int("slots", 0, "override number of slots")
	dcs := flag.Int("dcs", 0, "override number of datacenters")
	filesMax := flag.Int("files-max", 0, "override maximum files per slot")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel (run, scheduler) simulation cells; 1 = sequential (output is identical either way)")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	prof := cliutil.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	schedulers, err := cliutil.ParseSchedulers(*schedList)
	if errors.Is(err, cliutil.ErrSchedulerHelp) {
		fmt.Print(cliutil.SchedulerHelp())
		return nil
	}
	if err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	var scale postcard.Scale
	switch *scaleName {
	case "ci":
		scale = postcard.CIScale()
	case "paper":
		scale = postcard.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *runs > 0 {
		scale.Runs = *runs
	}
	if *slots > 0 {
		scale.Slots = *slots
	}
	if *dcs > 0 {
		scale.DCs = *dcs
	}
	if *filesMax > 0 {
		scale.FilesMax = *filesMax
	}
	if err := cliutil.ValidateWorkers(*workers); err != nil {
		return err
	}
	scale.Workers = *workers

	var settings []postcard.EvalSetting
	if *fig == 0 {
		settings = postcard.EvalSettings()
	} else {
		s, err := postcard.SettingByFigure(*fig)
		if err != nil {
			return err
		}
		settings = []postcard.EvalSetting{s}
	}

	for _, setting := range settings {
		cfg := postcard.FigureConfig{
			Setting:          setting,
			Scale:            scale,
			Schedulers:       schedulers,
			UniformDeadlines: *uniformDeadline,
		}
		if !*quiet {
			cfg.Progress = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
			}
		}
		res, err := postcard.RunFigure(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
		// Solver instrumentation, present only when an incremental
		// scheduler (e.g. postcard-warm) was in the mix.
		if st := res.SolverTable(); st != "" {
			fmt.Println(st)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("fig%d-%s.csv", setting.Figure, scale.Name))
			if err := os.WriteFile(path, []byte(res.SeriesCSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("series written to %s\n\n", path)
		}
	}
	return nil
}
