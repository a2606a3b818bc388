// Package stats provides the small statistical toolkit used by the
// simulation harness: streaming accumulators, sample summaries and Student-t
// confidence intervals.
package stats

import (
	"fmt"
	"math"
)

// Accumulator is a streaming mean/variance accumulator using Welford's
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N reports the number of observations added so far.
func (a *Accumulator) N() int { return a.n }

// Mean reports the sample mean. It is 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min reports the smallest observation. It is 0 for an empty accumulator.
func (a *Accumulator) Min() float64 { return a.min }

// Max reports the largest observation. It is 0 for an empty accumulator.
func (a *Accumulator) Max() float64 { return a.max }

// Variance reports the unbiased sample variance (n-1 denominator).
// It is 0 when fewer than two observations have been added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr reports the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 1 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Summary captures the point estimate and 95% confidence half-width of a
// set of runs, as plotted with error bars in the paper's Figs. 4-7.
type Summary struct {
	N        int     // number of observations
	Mean     float64 // sample mean
	StdDev   float64 // unbiased sample standard deviation
	CI95Half float64 // half-width of the 95% Student-t confidence interval
	Min      float64 // smallest observation
	Max      float64 // largest observation
}

// Summarize computes a Summary from the accumulated observations.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N:        a.n,
		Mean:     a.mean,
		StdDev:   a.StdDev(),
		CI95Half: TCritical95(a.n-1) * a.StdErr(),
		Min:      a.min,
		Max:      a.max,
	}
}

// String renders the summary as "mean ± ci95".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95Half, s.N)
}

// tTable95 holds two-sided 97.5% Student-t critical values for degrees of
// freedom 1..30. Beyond 30 the normal approximation is used.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom. It returns 0 for df < 1 (a confidence interval
// is undefined with a single observation).
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(tTable95):
		return tTable95[df-1]
	default:
		return 1.96
	}
}

// Mean returns the arithmetic mean of xs, or 0 when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summarize computes a Summary over a slice of observations.
func Summarize(xs []float64) Summary {
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Summarize()
}
