package telemetry

import (
	"reflect"
	"testing"
)

type inner struct {
	A int `metric:"a_total,A."`
	B float64
}

type skipped struct {
	C int
}

type outer struct {
	N int
	inner
	Named   inner // not embedded: not a counter of outer
	skipped `metric:"-"`
	Label   string
}

func TestAddSub(t *testing.T) {
	x := outer{N: 1, inner: inner{A: 2, B: 0.5}, Named: inner{A: 7}, skipped: skipped{C: 3}, Label: "x"}
	y := outer{N: 10, inner: inner{A: 20, B: 0.25}, Named: inner{A: 9}, skipped: skipped{C: 30}, Label: "y"}
	sum := x
	Add(&sum, y)
	want := outer{N: 11, inner: inner{A: 22, B: 0.75}, Named: inner{A: 7}, skipped: skipped{C: 33}, Label: "x"}
	if sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	Sub(&sum, y)
	if sum != x {
		t.Fatalf("Sub after Add = %+v, want %+v", sum, x)
	}
}

func TestWalk(t *testing.T) {
	x := outer{N: 1, inner: inner{A: 2, B: 0.5}, Named: inner{A: 7}, skipped: skipped{C: 3}}
	var names []string
	var vals []float64
	var tags []string
	Walk(&x, func(f reflect.StructField, v float64) {
		names = append(names, f.Name)
		vals = append(vals, v)
		tags = append(tags, f.Tag.Get("metric"))
	})
	if !reflect.DeepEqual(names, []string{"N", "A", "B"}) ||
		!reflect.DeepEqual(vals, []float64{1, 2, 0.5}) ||
		!reflect.DeepEqual(tags, []string{"", "a_total,A.", ""}) {
		t.Fatalf("Walk visited %v = %v with tags %q", names, vals, tags)
	}
}
