package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest element with at least p percent of the sample at or below it.
// An empty sample reads 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest rank of percentile p in a sample of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether percentile p of a sample of n has at least ten
// samples beyond it — the rule for which percentiles a run may quote.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= 10
}

// median is the middle of a sample (mean of the two middle elements for an
// even count); 0 for an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	asc := sorted(v)
	mid := len(asc) / 2
	if len(asc)%2 == 1 {
		return asc[mid]
	}
	return (asc[mid-1] + asc[mid]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (exclusive method) does, so spreads computed
// here agree with the driver's. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	asc := sorted(v)
	ld := len(asc)
	if ld < 2 {
		if ld == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (asc[j-1]*float64(n-delta) + asc[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
