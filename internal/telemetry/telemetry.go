// Package telemetry moves counter structs around without naming a counter.
// A counter is an int or float64 field of a struct; embedded structs are
// walked through, so a layer declares its counters once, as fields, and
// embeds the counters of the layer below. Sums, window differences and
// exports are then derived from that declaration by Add, Sub and Walk.
//
// These helpers use reflection, so they belong where counters are folded
// per solve or per scrape, never inside a solver's inner loop.
package telemetry

import "reflect"

// Add adds every counter of src into *dst.
func Add[T any](dst *T, src T) {
	combine(reflect.ValueOf(dst).Elem(), reflect.ValueOf(&src).Elem(), 1)
}

// Sub subtracts every counter of src from *dst.
func Sub[T any](dst *T, src T) {
	combine(reflect.ValueOf(dst).Elem(), reflect.ValueOf(&src).Elem(), -1)
}

func combine(dst, src reflect.Value, sign int64) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Int:
			d.SetInt(d.Int() + sign*s.Int())
		case reflect.Float64:
			d.SetFloat(d.Float() + float64(sign)*s.Float())
		case reflect.Struct:
			if dst.Type().Field(i).Anonymous {
				combine(d, s, sign)
			}
		}
	}
}

// Walk calls fn for every counter of the struct v points to, in declaration
// order, with the field's declaration (for its tags) and its value. An
// embedded struct tagged `metric:"-"` is skipped: its counters still add and
// subtract with the outer struct, but another surface exports them.
func Walk(v any, fn func(f reflect.StructField, x float64)) {
	walk(reflect.ValueOf(v).Elem(), fn)
}

func walk(v reflect.Value, fn func(reflect.StructField, float64)) {
	for i := 0; i < v.NumField(); i++ {
		f, x := v.Type().Field(i), v.Field(i)
		switch x.Kind() {
		case reflect.Int:
			fn(f, float64(x.Int()))
		case reflect.Float64:
			fn(f, x.Float())
		case reflect.Struct:
			if f.Anonymous && f.Tag.Get("metric") != "-" {
				walk(x, fn)
			}
		}
	}
}
