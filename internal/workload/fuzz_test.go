package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzReadTrace fuzzes the JSON trace decoder: arbitrary input must either
// fail with an error or yield a Trace whose accessors (MaxSlot,
// TotalVolume, FilesAt, Replay) never panic, whose replay cursor agrees
// with the stateless scan, and which round-trips through WriteJSON; only
// input holding exactly one JSON value may decode at all. The
// seed corpus includes a recorded trace, hostile edge cases (negative and
// enormous release slots), and the cmd/postcard-solve fixture (an
// instance, not a trace — the decoder must cope gracefully).
func FuzzReadTrace(f *testing.F) {
	if data, err := os.ReadFile("../../cmd/postcard-solve/testdata/relay.json"); err == nil {
		f.Add(data)
	}
	// A genuine recorded trace as the primary seed.
	gen, err := NewUniform(UniformConfig{
		NumDCs: 4, MinFiles: 1, MaxFiles: 3,
		MinSizeGB: 10, MaxSizeGB: 50, MaxDeadline: 3, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	if err := Record(gen, 5).WriteJSON(&rec); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add([]byte(`{"files":[]}`))
	f.Add([]byte(`{"files":null}`))
	f.Add([]byte(`{"files":[{"id":1,"src":0,"dst":1,"size":2.5,"deadline":1,"release":-7}]}`))
	f.Add([]byte(`{"files":[{"id":1,"src":0,"dst":1,"size":1,"deadline":1,"release":1099511627776}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`0`))
	f.Add([]byte(`{"files":[]} {"files":[]}`))
	f.Add([]byte(`{"files":[]} not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Fatalf("ReadTrace returned both a trace and error %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("ReadTrace accepted %q, which is not one JSON value", data)
		}
		maxSlot := tr.MaxSlot()
		if len(tr.Files) == 0 && maxSlot != -1 {
			t.Fatalf("MaxSlot = %d for empty trace, want -1", maxSlot)
		}
		_ = tr.TotalVolume()
		// The replay cursor must agree with the stateless scan at the
		// interesting slots, including hostile ones, without panicking or
		// allocating proportionally to the slot values.
		cur := tr.Replay()
		probes := []int{-1, 0, 1, maxSlot}
		for _, f := range tr.Files {
			probes = append(probes, f.Release)
		}
		for _, slot := range probes {
			scan := tr.FilesAt(slot)
			replay := cur.FilesAt(slot)
			if len(scan) == 0 && len(replay) == 0 {
				continue
			}
			if !reflect.DeepEqual(scan, replay) {
				t.Fatalf("slot %d: scan %v, replay %v", slot, scan, replay)
			}
		}
		// Round-trip through our own encoder.
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON failed on decoded trace: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round-trip mismatch:\nfirst  %+v\nsecond %+v", tr, again)
		}
	})
}
