// Command benchmark measures the Postcard daemon and solver end to end and
// layer by layer. BENCHMARK.json at the repository root names how the
// driver runs it; README.md in this directory defines every workload and
// metric.
//
//	bash benchmark/run.sh                                  all four workloads, end to end
//	bash benchmark/run.sh -trace 1 -workload daemon-wide   one workload's per-layer metrics
//	bash benchmark/run.sh -seed 1,2,3 -out dir             runs appended to dir/results.json
//	bash benchmark/run.sh -compare a.json b.json           verdict per workload × metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "workload name[,name]; empty runs all four")
	seedFlag := fs.String("seed", strconv.Itoa(defaultSeed), "seed[,seed]: every input is generated from it")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	reps := fs.Int("reps", 3, "daemon repetitions per run (each a fresh daemon); the fewest figure repetitions")
	out := fs.String("out", "", "directory for results.json (appended to) and span files; default .bench_build/out")
	smoke := fs.Bool("smoke", false, "tiny pass for the tests: in-process daemon, 2-slot figures")
	compare := fs.Bool("compare", false, "compare two results.json files given as arguments; exit 1 on any worse")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json from the metric catalogue and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		data, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(data))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results.json files")
			return 2
		}
		worse, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	if *smoke {
		*seconds, *reps = 1, 1
	}
	correct, err := measure(ctx, *workloadFlag, *seedFlag, *trace, *out,
		runOptions{Seconds: *seconds, Reps: *reps, Smoke: *smoke})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// measure runs every named workload at every seed, prints each result and
// appends it to the results file.
func measure(ctx context.Context, names, seeds string, trace int, outDir string, o runOptions) (correct bool, err error) {
	var specs []workloadSpec
	if names == "" {
		specs = workloads
	} else {
		for _, name := range strings.Split(names, ",") {
			w, err := workloadByName(name)
			if err != nil {
				return false, err
			}
			specs = append(specs, w)
		}
	}
	var seedList []int64
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return false, fmt.Errorf("bad seed %q", s)
		}
		seedList = append(seedList, seed)
	}

	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	if outDir == "" {
		outDir = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	// Scratch space for this process: instance files and span dumps. Span
	// files move to outDir; the rest goes when the run ends.
	o.WorkDir, err = os.MkdirTemp(outDir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(o.WorkDir)
	needBinary := false
	for _, w := range specs {
		needBinary = needBinary || (w.Kind == kindDaemon && !o.Smoke)
	}
	if needBinary {
		if o.ServerBin, err = buildServer(ctx, root); err != nil {
			return false, err
		}
	}

	correct = true
	for _, seed := range seedList {
		for _, w := range specs {
			stolen := stealClock()
			res, err := runWorkload(ctx, w, seed, trace, o)
			if err != nil {
				return false, err
			}
			res.StealPct = stolen.pctSince()
			printResult(res)
			if err := appendResult(filepath.Join(outDir, "results.json"), res); err != nil {
				return false, err
			}
			spans, _ := filepath.Glob(filepath.Join(o.WorkDir, "trace-*.json"))
			for _, p := range spans {
				if err := os.Rename(p, filepath.Join(outDir, filepath.Base(p))); err != nil {
					return false, err
				}
			}
			correct = correct && res.Correct
		}
	}
	return correct, nil
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds cmd/postcard-server.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "postcard-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the postcard repository: cmd/postcard-server not found")
		}
		dir = parent
	}
}

// buildServer builds the daemon under test from the checkout's source.
// Build time is outside every metric.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "postcard-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/postcard-server")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/postcard-server: %w", err)
	}
	return bin, nil
}

// printResult writes the human-readable report and then, as the last line,
// the contract's result object.
func printResult(r *runResult) {
	fmt.Printf("== %s seed=%d trace=%d: %d operations, %d failed; the host stole %.1f%% of the CPU time\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.StealPct)
	line := func(d metricDef, tag string) {
		v := r.Metrics[d.Name]
		note := ""
		if n := r.Samples[d.Name]; n > 0 {
			note = fmt.Sprintf("  n=%d", n)
			if p, ok := quotedPercentile(d.Name); ok && !supported(n, p) {
				note += fmt.Sprintf(" (fewer than 10 samples beyond p%g)", p)
			}
		}
		fmt.Printf("%-34s %14.6g %-6s%s%s\n", d.Name, v.Value, v.Unit, note, tag)
	}
	gated := endToEnd
	if r.Trace != 0 {
		gated = perLayer
	}
	result := make(map[string]value, len(gated))
	for _, d := range gated {
		line(d, "")
		result[d.Name] = r.Metrics[d.Name]
	}
	if r.Trace == 0 {
		for _, d := range timings {
			line(d, "  (wall clock, not gated)")
		}
	}
	for _, l := range r.SelfTimes {
		fmt.Println(l)
	}
	for _, p := range r.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, result})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
}

// quotedPercentile reads the percentile a metric name quotes (_p90_ → 90).
func quotedPercentile(name string) (float64, bool) {
	for _, part := range strings.Split(name, "_") {
		if rest, ok := strings.CutPrefix(part, "p"); ok {
			if p, err := strconv.ParseFloat(rest, 64); err == nil {
				return p, true
			}
		}
	}
	return 0, false
}

// cpuTicks is a reading of the first line of /proc/stat.
type cpuTicks struct{ steal, total float64 }

// stealClock reads how much CPU time the hypervisor has withheld from this
// machine so far. On a shared host that share moves from a few tenths of a
// percent to half of all CPU time within minutes, and every wall-clock
// number moves with it, so each run records it beside its metrics.
func stealClock() cpuTicks {
	data, _ := os.ReadFile("/proc/stat") // not Linux: the share reads 0
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i > 8 { // the label, then guest time already counted in user
			continue
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// pctSince is the stolen share of all CPU time since t was read, in percent.
func (t cpuTicks) pctSince() float64 {
	now := stealClock()
	return 100 * ratio(now.steal-t.steal, now.total-t.total)
}

// host identifies the machine and toolchain a results file was taken on;
// -compare refuses files whose hosts differ.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func thisHost() host {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // not Linux: left empty
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel))}
}

// resultsFile is the shape of results.json.
type resultsFile struct {
	Host host         `json:"host"`
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds one run to the results file, creating it on first use.
func appendResult(path string, r *runResult) error {
	f, err := readResults(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		f = &resultsFile{Host: thisHost()}
	case err != nil:
		return err
	case f.Host != thisHost():
		return fmt.Errorf("%s was taken on another host (%+v); choose another -out", path, f.Host)
	}
	f.Runs = append(f.Runs, r)
	sort.SliceStable(f.Runs, func(i, j int) bool { return f.Runs[i].Workload < f.Runs[j].Workload })
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
