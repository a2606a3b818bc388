package workload

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/interdc/postcard/internal/netmodel"
)

func TestUniformBounds(t *testing.T) {
	cfg := UniformConfig{
		NumDCs: 6, MinFiles: 1, MaxFiles: 5,
		MinSizeGB: 10, MaxSizeGB: 100, MaxDeadline: 4, Seed: 1,
	}
	gen, err := NewUniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for slot := 0; slot < 50; slot++ {
		files := gen.FilesAt(slot)
		if len(files) < 1 || len(files) > 5 {
			t.Fatalf("slot %d: %d files outside [1,5]", slot, len(files))
		}
		for _, f := range files {
			if seen[f.ID] {
				t.Fatalf("duplicate file ID %d", f.ID)
			}
			seen[f.ID] = true
			if f.Src == f.Dst {
				t.Fatalf("file %d has src == dst", f.ID)
			}
			if int(f.Src) < 0 || int(f.Src) >= 6 || int(f.Dst) < 0 || int(f.Dst) >= 6 {
				t.Fatalf("file %d endpoints out of range", f.ID)
			}
			if f.Size < 10 || f.Size > 100 {
				t.Fatalf("file %d size %v outside [10,100]", f.ID, f.Size)
			}
			if f.Deadline < 1 || f.Deadline > 4 {
				t.Fatalf("file %d deadline %d outside [1,4]", f.ID, f.Deadline)
			}
			if f.Release != slot {
				t.Fatalf("file %d release %d != slot %d", f.ID, f.Release, slot)
			}
		}
	}
}

func TestUniformFixedDeadline(t *testing.T) {
	cfg := UniformConfig{
		NumDCs: 4, MinFiles: 2, MaxFiles: 2,
		MinSizeGB: 1, MaxSizeGB: 2, MaxDeadline: 7, FixedDeadline: true, Seed: 3,
	}
	gen, err := NewUniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range gen.FilesAt(0) {
		if f.Deadline != 7 {
			t.Errorf("deadline %d, want fixed 7", f.Deadline)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	cfg := UniformConfig{NumDCs: 20, MinFiles: 1, MaxFiles: 20, MinSizeGB: 10, MaxSizeGB: 100, MaxDeadline: 3, Seed: 42}
	g1, err := NewUniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewUniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 5; slot++ {
		a, b := g1.FilesAt(slot), g2.FilesAt(slot)
		if len(a) != len(b) {
			t.Fatalf("slot %d: lengths differ", slot)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("slot %d file %d: %+v != %+v", slot, i, a[i], b[i])
			}
		}
	}
}

func TestUniformValidation(t *testing.T) {
	bad := []UniformConfig{
		{NumDCs: 1, MinFiles: 1, MaxFiles: 2, MinSizeGB: 1, MaxSizeGB: 2, MaxDeadline: 1},
		{NumDCs: 3, MinFiles: 5, MaxFiles: 2, MinSizeGB: 1, MaxSizeGB: 2, MaxDeadline: 1},
		{NumDCs: 3, MinFiles: 1, MaxFiles: 2, MinSizeGB: 0, MaxSizeGB: 2, MaxDeadline: 1},
		{NumDCs: 3, MinFiles: 1, MaxFiles: 2, MinSizeGB: 3, MaxSizeGB: 2, MaxDeadline: 1},
		{NumDCs: 3, MinFiles: 1, MaxFiles: 2, MinSizeGB: 1, MaxSizeGB: 2, MaxDeadline: 0},
	}
	for i, cfg := range bad {
		if _, err := NewUniform(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDiurnalIntensity(t *testing.T) {
	cfg := DiurnalConfig{
		Uniform: UniformConfig{
			NumDCs: 5, MinFiles: 8, MaxFiles: 8,
			MinSizeGB: 1, MaxSizeGB: 2, MaxDeadline: 2, Seed: 9,
		},
		Period: 24, Amplitude: 1,
	}
	gen, err := NewDiurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Peak at slot 6 (sin = 1): expect ~8 files. Trough at slot 18: ~0.
	peak := len(gen.FilesAt(6))
	trough := len(gen.FilesAt(18))
	if peak <= trough {
		t.Errorf("peak %d should exceed trough %d", peak, trough)
	}
	if trough > 2 {
		t.Errorf("trough %d files, want near zero", trough)
	}
}

func TestDiurnalValidation(t *testing.T) {
	uni := UniformConfig{NumDCs: 3, MinFiles: 1, MaxFiles: 1, MinSizeGB: 1, MaxSizeGB: 1, MaxDeadline: 1}
	if _, err := NewDiurnal(DiurnalConfig{Uniform: uni, Period: 1, Amplitude: 0.5}); err == nil {
		t.Error("expected error for period < 2")
	}
	if _, err := NewDiurnal(DiurnalConfig{Uniform: uni, Period: 10, Amplitude: 2}); err == nil {
		t.Error("expected error for amplitude > 1")
	}
}

func TestTraceRecordReplay(t *testing.T) {
	gen, err := NewUniform(UniformConfig{
		NumDCs: 4, MinFiles: 1, MaxFiles: 3,
		MinSizeGB: 5, MaxSizeGB: 10, MaxDeadline: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := Record(gen, 8)
	if trace.MaxSlot() > 7 {
		t.Errorf("MaxSlot = %d, want <= 7", trace.MaxSlot())
	}
	count := 0
	for slot := 0; slot < 8; slot++ {
		for _, f := range trace.FilesAt(slot) {
			if f.Release != slot {
				t.Errorf("file %d release %d at slot %d", f.ID, f.Release, slot)
			}
			count++
		}
	}
	if count != len(trace.Files) {
		t.Errorf("replayed %d of %d files", count, len(trace.Files))
	}
	if trace.TotalVolume() <= 0 {
		t.Error("TotalVolume should be positive")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := &Trace{Files: []netmodel.File{
		{ID: 1, Src: 0, Dst: 2, Size: 12.5, Deadline: 3, Release: 0},
		{ID: 2, Src: 1, Dst: 0, Size: 80, Deadline: 8, Release: 4},
	}}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != 2 || got.Files[0] != tr.Files[0] || got.Files[1] != tr.Files[1] {
		t.Errorf("round trip mismatch: %+v", got.Files)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewBufferString("{nope")); err == nil {
		t.Error("expected decode error")
	}
}

func TestUniformPricesProperties(t *testing.T) {
	f := func(seed int64, i, j uint8) bool {
		p := UniformPrices(seed)
		a := netmodel.DC(i % 20)
		b := netmodel.DC(j % 20)
		v := p(a, b)
		if v < 1 || v > 10 {
			return false
		}
		// Deterministic and order-independent.
		return p(a, b) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformPricesVary(t *testing.T) {
	p := UniformPrices(5)
	distinct := map[float64]bool{}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				distinct[p(netmodel.DC(i), netmodel.DC(j))] = true
			}
		}
	}
	if len(distinct) < 15 {
		t.Errorf("only %d distinct prices among 20 links", len(distinct))
	}
}
