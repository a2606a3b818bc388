package netmodel

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

// FuzzReadInstance fuzzes the JSON instance decoder: arbitrary input must
// either fail with an error or, when it holds exactly one JSON value, yield
// an Instance that re-encodes and re-decodes to the identical structure,
// and that Build either rejects or materializes without panicking. The seed
// corpus includes the shipped cmd/postcard-solve fixture plus handwritten
// edge cases.
func FuzzReadInstance(f *testing.F) {
	if data, err := os.ReadFile("../../cmd/postcard-solve/testdata/relay.json"); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"datacenters":2,"links":[{"from":0,"to":1,"price":1,"capacity":5}],"files":[{"id":1,"src":0,"dst":1,"size":3,"deadline":2,"release":0}]}`))
	f.Add([]byte(`{"datacenters":0,"links":null,"files":null}`))
	f.Add([]byte(`{"datacenters":3,"links":[{"from":-1,"to":9,"price":-2,"capacity":-3}]}`))
	f.Add([]byte(`{"datacenters":2,"files":[{"id":1,"src":0,"dst":1,"size":1e308,"deadline":1},{"id":1,"src":0,"dst":1,"size":1,"deadline":1}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"datacenters":2,"unknown":true}`))
	f.Add([]byte(`{"datacenters":2} {"datacenters":3}`))
	f.Add([]byte(`{"datacenters":2} not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := ReadInstance(bytes.NewReader(data))
		if err != nil {
			if inst != nil {
				t.Fatalf("ReadInstance returned both an instance and error %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("ReadInstance accepted %q, which is not one JSON value", data)
		}
		// Round-trip: what we decoded must encode and decode losslessly
		// (JSON numbers round-trip exactly through Go's float formatting).
		var buf bytes.Buffer
		if err := inst.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON failed on decoded instance: %v", err)
		}
		again, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(inst, again) {
			t.Fatalf("round-trip mismatch:\nfirst  %+v\nsecond %+v", inst, again)
		}
		// Build must validate instead of panicking or returning corrupt
		// structures. Bounded: Build allocates O(datacenters^2), so huge
		// DC counts (decoder-legal but absurd) are skipped, not built.
		if inst.Datacenters > 64 || len(inst.Links) > 4096 || len(inst.Files) > 4096 {
			return
		}
		nw, files, err := inst.Build()
		if err != nil {
			return
		}
		if nw == nil || nw.NumDCs() != inst.Datacenters {
			t.Fatalf("Build returned nw=%v for %d datacenters", nw, inst.Datacenters)
		}
		if len(files) != len(inst.Files) {
			t.Fatalf("Build returned %d files, instance has %d", len(files), len(inst.Files))
		}
		for _, file := range files {
			if err := file.Validate(nw); err != nil {
				t.Fatalf("Build let an invalid file through: %v", err)
			}
		}
	})
}

// FuzzChargedVolume fuzzes the percentile charging scheme: for any percentile
// q in (0, 100], any period, and any recorded volumes, the charged volume
// must be the element of the zero-padded sorted volume multiset at the exact
// rank ceil(q/100 * effectivePeriod) — never off by one (the float-ceiling
// bug this pins down over-ranked 40 integer (q, period) combinations).
func FuzzChargedVolume(f *testing.F) {
	f.Add(7.0, 100, int64(1), 100)
	f.Add(14.0, 50, int64(2), 50)
	f.Add(28.0, 25, int64(3), 25)
	f.Add(100.0, 10, int64(4), 6)
	f.Add(50.0, 10, int64(5), 0)
	f.Add(0.5, 300, int64(6), 12)
	f.Add(99.999, 3, int64(7), 5) // recorded beyond the period

	f.Fuzz(func(t *testing.T, qRaw float64, periodRaw int, seed int64, usedRaw int) {
		q := qRaw
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return
		}
		q = math.Mod(math.Abs(q), 100)
		if q == 0 {
			q = 100
		}
		period := periodRaw%300 + 1
		if period < 1 {
			period += 300
		}
		used := usedRaw % (period + 8)
		if used < 0 {
			used = -used
		}
		rng := rand.New(rand.NewSource(seed))
		vols := make([]float64, used)
		for i := range vols {
			vols[i] = math.Floor(rng.Float64()*1000) / 8
		}
		c := Charging{Q: q, PeriodSlots: period}
		if err := c.Validate(); err != nil {
			t.Fatalf("scheme q=%v period=%d failed validation: %v", q, period, err)
		}
		got := c.ChargedVolume(vols)

		eff := period
		if used > eff {
			eff = used
		}
		padded := make([]float64, eff)
		copy(padded, vols)
		sort.Float64s(padded)
		var want float64
		switch {
		case used == 0:
			want = 0
		case q >= 100:
			want = padded[eff-1]
		default:
			want = padded[exactRankRef(q, eff)-1]
		}
		if got != want {
			t.Fatalf("q=%v period=%d used=%d: charged %v, want multiset element %v at exact rank",
				q, period, used, got, want)
		}
		// The charge is always an element of the padded multiset.
		idx := sort.SearchFloat64s(padded, got)
		if idx >= len(padded) || padded[idx] != got {
			t.Fatalf("charged volume %v is not an element of the padded multiset", got)
		}
	})
}
