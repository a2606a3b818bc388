// Package workload generates the inter-datacenter traffic demands that
// drive the simulator: the paper's uniform workload (Sec. VII), a diurnal
// variant for the backup example, and JSON traces for record/replay so
// that every scheduler sees byte-identical demand.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/interdc/postcard/internal/jsonio"
	"github.com/interdc/postcard/internal/netmodel"
)

// Generator produces the files generated at each slot. FilesAt must be
// called with strictly increasing slots (generators draw from a sequential
// random stream).
type Generator interface {
	FilesAt(slot int) []netmodel.File
}

// UniformConfig parameterizes the paper's evaluation workload: per slot,
// a uniformly random number of files in [MinFiles, MaxFiles], each with a
// uniformly random size in [MinSizeGB, MaxSizeGB], endpoints drawn
// uniformly among distinct datacenters, and deadlines drawn uniformly in
// [1, MaxDeadline] (or fixed at MaxDeadline with FixedDeadline).
type UniformConfig struct {
	NumDCs        int
	MinFiles      int
	MaxFiles      int
	MinSizeGB     float64
	MaxSizeGB     float64
	MaxDeadline   int
	FixedDeadline bool
	Seed          int64
}

// Validate checks the configuration.
func (c UniformConfig) Validate() error {
	if c.NumDCs < 2 {
		return fmt.Errorf("workload: need at least 2 datacenters, got %d", c.NumDCs)
	}
	if c.MinFiles < 0 || c.MaxFiles < c.MinFiles {
		return fmt.Errorf("workload: invalid file count range [%d, %d]", c.MinFiles, c.MaxFiles)
	}
	if c.MinSizeGB <= 0 || c.MaxSizeGB < c.MinSizeGB {
		return fmt.Errorf("workload: invalid size range [%g, %g]", c.MinSizeGB, c.MaxSizeGB)
	}
	if c.MaxDeadline < 1 {
		return fmt.Errorf("workload: MaxDeadline %d < 1", c.MaxDeadline)
	}
	return nil
}

// Uniform is the paper's uniform workload generator.
type Uniform struct {
	cfg    UniformConfig
	rng    *rand.Rand
	nextID int
}

// NewUniform creates a Uniform generator.
func NewUniform(cfg UniformConfig) (*Uniform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Uniform{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), nextID: 1}, nil
}

// FilesAt draws the files generated at slot.
func (u *Uniform) FilesAt(slot int) []netmodel.File {
	count := u.cfg.MinFiles
	if u.cfg.MaxFiles > u.cfg.MinFiles {
		count += u.rng.Intn(u.cfg.MaxFiles - u.cfg.MinFiles + 1)
	}
	files := make([]netmodel.File, 0, count)
	for k := 0; k < count; k++ {
		files = append(files, u.draw(slot))
	}
	return files
}

func (u *Uniform) draw(slot int) netmodel.File {
	src := u.rng.Intn(u.cfg.NumDCs)
	dst := (src + 1 + u.rng.Intn(u.cfg.NumDCs-1)) % u.cfg.NumDCs
	size := u.cfg.MinSizeGB + u.rng.Float64()*(u.cfg.MaxSizeGB-u.cfg.MinSizeGB)
	deadline := u.cfg.MaxDeadline
	if !u.cfg.FixedDeadline && u.cfg.MaxDeadline > 1 {
		deadline = 1 + u.rng.Intn(u.cfg.MaxDeadline)
	}
	f := netmodel.File{
		ID:       u.nextID,
		Src:      netmodel.DC(src),
		Dst:      netmodel.DC(dst),
		Size:     size,
		Deadline: deadline,
		Release:  slot,
	}
	u.nextID++
	return f
}

// DiurnalConfig modulates a Uniform workload with a day/night cycle: the
// expected file count follows 1 + Amplitude*sin(2π(slot+Phase)/Period),
// mimicking the strong diurnal pattern reported for inter-datacenter
// traffic (Chen et al., cited in Sec. II-A).
type DiurnalConfig struct {
	Uniform   UniformConfig
	Period    int     // slots per day
	Amplitude float64 // in [0, 1]
	Phase     int
}

// Diurnal is a day/night-modulated workload generator.
type Diurnal struct {
	cfg DiurnalConfig
	uni *Uniform
}

// NewDiurnal creates a Diurnal generator.
func NewDiurnal(cfg DiurnalConfig) (*Diurnal, error) {
	if cfg.Period < 2 {
		return nil, fmt.Errorf("workload: diurnal period %d < 2", cfg.Period)
	}
	if cfg.Amplitude < 0 || cfg.Amplitude > 1 {
		return nil, fmt.Errorf("workload: diurnal amplitude %g outside [0, 1]", cfg.Amplitude)
	}
	uni, err := NewUniform(cfg.Uniform)
	if err != nil {
		return nil, err
	}
	return &Diurnal{cfg: cfg, uni: uni}, nil
}

// FilesAt draws files with the slot's diurnal intensity.
func (d *Diurnal) FilesAt(slot int) []netmodel.File {
	phase := 2 * math.Pi * float64(slot+d.cfg.Phase) / float64(d.cfg.Period)
	intensity := 1 + d.cfg.Amplitude*math.Sin(phase)
	base := d.uni.FilesAt(slot)
	n := int(math.Round(float64(len(base)) * intensity / (1 + d.cfg.Amplitude)))
	if n > len(base) {
		n = len(base)
	}
	return base[:n]
}

// Trace is a recorded workload: the concatenated files of a run, ordered
// by release slot. It serializes to JSON for replay across schedulers and
// processes.
type Trace struct {
	Files []netmodel.File `json:"files"`
}

// Record drains gen for slots [0, slots) into a Trace.
func Record(gen Generator, slots int) *Trace {
	tr := &Trace{}
	for s := 0; s < slots; s++ {
		tr.Files = append(tr.Files, gen.FilesAt(s)...)
	}
	return tr
}

// FilesAt returns the recorded files released at slot. It is stateless
// (and therefore safe for concurrent use on an immutable trace) but scans
// the whole trace per call; replaying a full run is O(files x slots). Use
// Replay for a linear-time per-goroutine cursor.
func (tr *Trace) FilesAt(slot int) []netmodel.File {
	var out []netmodel.File
	for _, f := range tr.Files {
		if f.Release == slot {
			out = append(out, f)
		}
	}
	return out
}

// Replay returns an independent replay cursor over the trace. The cursor
// indexes the files once — a stable sort by release slot, O(files log
// files) — so a full replay is near-linear instead of FilesAt's
// O(files x slots) rescan, and memory stays proportional to the file
// count even for hostile traces with enormous release slots (a dense
// per-slot table would let a crafted JSON trace allocate unboundedly).
// Each cursor is an independent view: concurrent simulations replaying
// the same immutable Trace must each call Replay and use their own cursor
// (the Trace itself is never mutated). Files within a slot come back in
// recorded order, exactly as Trace.FilesAt returns them.
func (tr *Trace) Replay() *TraceCursor {
	sorted := make([]netmodel.File, len(tr.Files))
	copy(sorted, tr.Files)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Release < sorted[j].Release
	})
	return &TraceCursor{sorted: sorted}
}

// TraceCursor is a per-goroutine replay cursor created by Trace.Replay.
// It implements Generator. Share the Trace, not the cursor: create one
// cursor per concurrent replay.
type TraceCursor struct {
	sorted []netmodel.File // stably sorted by Release
}

// FilesAt implements Generator, returning the recorded files released at
// slot in recorded order. Unlike sequential generators it is safe to call
// with arbitrary (even decreasing) slots.
func (c *TraceCursor) FilesAt(slot int) []netmodel.File {
	lo := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].Release >= slot })
	hi := lo
	for hi < len(c.sorted) && c.sorted[hi].Release == slot {
		hi++
	}
	if lo == hi {
		return nil
	}
	return c.sorted[lo:hi:hi]
}

// MaxSlot reports the last release slot in the trace, or -1 when empty.
func (tr *Trace) MaxSlot() int {
	maxSlot := -1
	for _, f := range tr.Files {
		if f.Release > maxSlot {
			maxSlot = f.Release
		}
	}
	return maxSlot
}

// TotalVolume reports the sum of file sizes in GB.
func (tr *Trace) TotalVolume() float64 {
	total := 0.0
	for _, f := range tr.Files {
		total += f.Size
	}
	return total
}

// WriteJSON serializes the trace.
func (tr *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("workload: encoding trace: %w", err)
	}
	return nil
}

// ReadTrace deserializes a trace written by WriteJSON. The input must hold
// the one trace object and nothing else but whitespace.
func ReadTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := jsonio.DecodeOne(json.NewDecoder(r), &tr); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	return &tr, nil
}

// UniformPrices returns a price function drawing each directed link's price
// uniformly from [1, 10] (the paper's evaluation setup), deterministic in
// the seed and the link.
func UniformPrices(seed int64) func(i, j netmodel.DC) float64 {
	return func(i, j netmodel.DC) float64 {
		// A small splitmix-style hash keeps prices independent of call
		// order, so every scheduler sees the same network.
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(j)*0x94d049bb133111eb
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return 1 + 9*(float64(h>>11)/float64(1<<53))
	}
}
