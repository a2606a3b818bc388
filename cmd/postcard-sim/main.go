// Command postcard-sim runs one online time-slotted simulation with a
// configurable network, workload, and scheduler, and prints the cost per
// charging interval over time. With a comma-separated -scheduler list it
// replays the identical workload trace through every scheduler — each on
// its own ledger and replay cursor, concurrently up to -workers — and
// prints the per-scheduler reports in listed order (output is independent
// of the worker count).
//
// Usage:
//
//	postcard-sim -dcs 8 -slots 20 -capacity 30 -maxt 8 -scheduler postcard
//	postcard-sim -scheduler flow-based -csv costs.csv
//	postcard-sim -scheduler postcard,flow-based,direct -workers 4
//	postcard-sim -scheduler help            # list every registered scheduler
//	postcard-sim -trace-out trace.json      # save the workload for replay
//	postcard-sim -trace-in trace.json       # replay a saved workload
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "postcard-sim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	dcs := flag.Int("dcs", 8, "number of datacenters (complete graph)")
	slots := flag.Int("slots", 20, "number of time slots to simulate")
	capacity := flag.Float64("capacity", 30, "per-link capacity in GB/slot")
	maxT := flag.Int("maxt", 3, "maximum tolerable transfer time, slots")
	filesMin := flag.Int("files-min", 1, "minimum files per slot")
	filesMax := flag.Int("files-max", 4, "maximum files per slot")
	sizeMin := flag.Float64("size-min", 10, "minimum file size, GB")
	sizeMax := flag.Float64("size-max", 100, "maximum file size, GB")
	seed := flag.Int64("seed", 1, "random seed (prices and workload)")
	schedNames := flag.String("scheduler", "postcard", cliutil.SchedulerFlagUsage)
	workers := flag.Int("workers", runtime.NumCPU(), "schedulers simulated concurrently (each on its own ledger)")
	csvOut := flag.String("csv", "", "write the per-slot cost series to this CSV file (one column per scheduler)")
	traceOut := flag.String("trace-out", "", "record the generated workload to this JSON file")
	instanceOut := flag.String("instance-out", "", "write the generated network as an instance JSON file (e.g. for postcard-server)")
	traceIn := flag.String("trace-in", "", "replay a workload recorded with -trace-out")
	prof := cliutil.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	scheds, err := cliutil.ParseSchedulers(*schedNames)
	if errors.Is(err, cliutil.ErrSchedulerHelp) {
		fmt.Print(cliutil.SchedulerHelp())
		return nil
	}
	if err != nil {
		return err
	}
	if err := cliutil.ValidateWorkers(*workers); err != nil {
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

	nw, err := postcard.Complete(*dcs, postcard.UniformPrices(*seed), *capacity)
	if err != nil {
		return err
	}

	if *instanceOut != "" {
		if err := cliutil.WriteInstanceFile(*instanceOut, postcard.InstanceOf(nw, nil)); err != nil {
			return err
		}
		fmt.Printf("instance written to %s\n", *instanceOut)
	}

	var trace *postcard.Trace
	if *traceIn != "" {
		trace, err = cliutil.ReadTraceFile(*traceIn)
		if err != nil {
			return err
		}
	} else {
		uni, err := postcard.NewUniformWorkload(postcard.UniformWorkloadConfig{
			NumDCs:      *dcs,
			MinFiles:    *filesMin,
			MaxFiles:    *filesMax,
			MinSizeGB:   *sizeMin,
			MaxSizeGB:   *sizeMax,
			MaxDeadline: *maxT,
			Seed:        *seed + 1,
		})
		if err != nil {
			return err
		}
		trace = postcard.RecordTrace(uni, *slots)
		if *traceOut != "" {
			if err := cliutil.WriteTraceFile(*traceOut, trace); err != nil {
				return err
			}
			fmt.Printf("workload trace written to %s\n", *traceOut)
		}
	}

	// Every scheduler replays the identical immutable trace on its own
	// ledger through its own cursor; up to -workers run concurrently.
	// Results are collected per index and reported in listed order, so the
	// output does not depend on the worker count.
	type outcome struct {
		stats *postcard.RunStats
		err   error
	}
	outcomes := make([]outcome, len(scheds))
	sem := make(chan struct{}, *workers)
	var wg sync.WaitGroup
	for i, sched := range scheds {
		wg.Add(1)
		go func(i int, sched postcard.Scheduler) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ledger, err := postcard.NewLedger(nw, postcard.MaxCharging(*slots))
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			rs, err := postcard.Run(ledger, sched, trace.Replay(), *slots)
			outcomes[i] = outcome{stats: rs, err: err}
		}(i, sched)
	}
	wg.Wait()

	for i, sched := range scheds {
		if err := outcomes[i].err; err != nil {
			return fmt.Errorf("scheduler %s: %w", sched.Name(), err)
		}
		rs := outcomes[i].stats
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("scheduler:        %s\n", sched.Name())
		fmt.Printf("datacenters:      %d (complete, capacity %g GB/slot)\n", *dcs, *capacity)
		fmt.Printf("slots:            %d\n", *slots)
		fmt.Printf("files scheduled:  %d (%.1f GB)\n", rs.ScheduledFiles, rs.ScheduledVolume)
		fmt.Printf("files dropped:    %d (%.1f GB, %.2f%%)\n", rs.DroppedFiles, rs.DroppedVolume, 100*rs.DropRate())
		fmt.Printf("solve time:       %s\n", rs.Elapsed.Round(1000000))
		fmt.Printf("final cost/slot:  %.2f\n", rs.FinalCostPerSlot)
		if sv := rs.Solver; sv.Solves > 0 {
			fmt.Printf("lp solves:        %d (%d warm-started, %d graph reuses)\n",
				sv.Solves, sv.WarmSolves, sv.GraphReuses)
			fmt.Printf("lp iterations:    %d (%d phase-1)\n", sv.Iterations, sv.Phase1Iter)
			if tot := sv.SparseSolves + sv.DenseSolves; tot > 0 {
				density := 0.0
				if sv.SolveDim > 0 {
					density = float64(sv.SolveNNZ) / float64(sv.SolveDim)
				}
				fmt.Printf("lp basis solves:  %.1f%% sparse (%d/%d), result density %.3f\n",
					100*float64(sv.SparseSolves)/float64(tot), sv.SparseSolves, tot, density)
				fmt.Printf("lp pricing:       %d devex resets, %d dual recomputes\n",
					sv.DevexResets, sv.DualRecomputes)
			}
			if sv.PathSolves > 0 {
				fmt.Printf("path pricing:     %d solves, %d fallbacks, %d lazy rows, %d columns\n",
					sv.PathSolves, sv.PathFallbacks, sv.ColGenRows, sv.ColGenColumns)
			}
		}
		if sv := rs.Solver; sv.Admits+sv.Rejects > 0 {
			fmt.Printf("fast admissions:  %d admitted, %d rejected, %d republishes\n",
				sv.Admits, sv.Rejects, sv.Republishes)
			fmt.Printf("fast-tier cost:   %.2f committed, %.2f saved by republish\n",
				sv.FastCost, sv.RepublishDelta)
		}
		fmt.Println("\ncost per interval over time:")
		for t, c := range rs.CostSeries {
			fmt.Printf("  slot %3d: %10.2f %s\n", t, c, bar(c, rs.FinalCostPerSlot))
		}
	}
	if *csvOut != "" {
		var b strings.Builder
		b.WriteString("slot")
		for _, sched := range scheds {
			fmt.Fprintf(&b, ",%s", sched.Name())
		}
		b.WriteByte('\n')
		for t := 0; t < *slots; t++ {
			fmt.Fprintf(&b, "%d", t)
			for i := range scheds {
				fmt.Fprintf(&b, ",%.4f", outcomes[i].stats.CostSeries[t])
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(*csvOut, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nseries written to %s\n", *csvOut)
	}
	return nil
}

func bar(v, maxV float64) string {
	if maxV <= 0 {
		return ""
	}
	n := int(40 * v / maxV)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	return strings.Repeat("#", n)
}
