package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d, want 8", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	a.Add(3)
	if a.Variance() != 0 {
		t.Errorf("single-sample variance = %v, want 0", a.Variance())
	}
	s := a.Summarize()
	if s.CI95Half != 0 {
		t.Errorf("single-sample CI = %v, want 0", s.CI95Half)
	}
}

func TestSummarizeMatchesAccumulator(t *testing.T) {
	xs := []float64{1.5, 2.5, 3.5, 10}
	s := Summarize(xs)
	if s.N != 4 || math.Abs(s.Mean-4.375) > 1e-12 {
		t.Errorf("summary %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 2: 4.303, 9: 2.262, 30: 2.042, 100: 1.96}
	for df, want := range cases {
		if got := TCritical95(df); got != want {
			t.Errorf("TCritical95(%d) = %v, want %v", df, got, want)
		}
	}
	if TCritical95(0) != 0 {
		t.Error("df=0 should yield 0")
	}
}

func TestCIShrinksWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Accumulator
	for i := 0; i < 5; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 500; i++ {
		large.Add(rng.NormFloat64())
	}
	if small.Summarize().CI95Half <= large.Summarize().CI95Half {
		t.Error("CI should shrink with more samples")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestAccumulatorMatchesNaiveFormulas(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			a.Add(xs[i])
		}
		mean := Mean(xs)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-naiveVar) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
