package main

import (
	"fmt"
	"io"
)

// verdict is -compare's judgement of one workload × end-to-end metric.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of a (the base) and b for one metric. The change
// is the share of a's median by which b's median is worse (positive) or
// better (negative), in the metric's own direction. Beyond the bound it is
// worse; within it, same — unless either side's own spread (interquartile
// distance over median) exceeds the bound, in which case the runs cannot
// resolve a change of that size and the verdict is unresolved, except when
// every run of one side beats every run of the other.
func judge(d metricDef, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if d.Better == "higher" {
		change = -change
	}
	sa, sb := sorted(a), sorted(b)
	separated := sb[0] > sa[len(sa)-1] || sb[len(sb)-1] < sa[0]
	noisy := spread(a) > d.Bound || spread(b) > d.Bound
	switch {
	case noisy && !separated:
		return unresolved, change
	case change > d.Bound:
		return worse, change
	case change < -d.Bound:
		return better, change
	default:
		return same, change
	}
}

// compareFiles prints, per workload × end-to-end metric (the wall-clock
// timings included), both medians with their quartiles, the change with its
// base, the bound and the verdict. It refuses files from different hosts and
// reports whether anything is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Host != b.Host {
		return false, fmt.Errorf("hosts differ, the files are not comparable:\n  %s: %+v\n  %s: %+v", pathA, a.Host, pathB, b.Host)
	}
	values := func(f *resultsFile, workload, metric string) []float64 {
		var v []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "base %s, change %s; host %+v\n", pathA, pathB, a.Host)
	fmt.Fprintf(w, "%-16s %-15s %-31s %-31s %-22s %6s  %s\n",
		"workload", "metric", "base median [q1, q3] (n)", "change median [q1, q3] (n)", "worse by (of base)", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range untraced {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := judge(d, va, vb)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-16s %-15s %-31s %-31s %+7.1f%% of %-9.4g %5.0f%%  %s\n",
				wl.Name, d.Name, summary(va), summary(vb), 100*change, median(va), 100*d.Bound, v)
		}
	}
	for _, f := range []*resultsFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "note: %s seed %d: correct=%v, %d of %d operations failed\n", r.Workload, r.Seed, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
	return anyWorse, nil
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(v), q1, q3, len(v))
}
