package netmodel

import (
	"fmt"
	"math"
	"sort"
)

// Epsilon is the per-GB weight of the secondary traffic-minimization term
// every LP scheduler adds to its cost objective. It breaks ties among
// cost-equal optima by discouraging gratuitous traffic riding below a
// link's charged peak.
const Epsilon = 1e-6

// Charging is a q-th percentile charging scheme (Sec. II-A): per-slot
// traffic volumes over a charging period of PeriodSlots slots are sorted
// ascending, and the volume at the ceil(q/100 * PeriodSlots)-th position
// (1-based) is the charged volume. Q = 100 charges the peak, which is the
// scheme the paper's formulation and evaluation use.
type Charging struct {
	Q           float64 // percentile in (0, 100]
	PeriodSlots int     // number of accounting slots in the charging period
}

// MaxCharging is the 100th-percentile scheme over the given period.
func MaxCharging(periodSlots int) Charging {
	return Charging{Q: 100, PeriodSlots: periodSlots}
}

// Validate checks the scheme parameters.
func (c Charging) Validate() error {
	if c.Q <= 0 || c.Q > 100 {
		return fmt.Errorf("netmodel: percentile %v outside (0, 100]", c.Q)
	}
	if c.PeriodSlots < 1 {
		return fmt.Errorf("netmodel: charging period of %d slots", c.PeriodSlots)
	}
	return nil
}

// percentileRank computes the exact 1-based rank ceil(q/100 * period) of a
// q-th percentile over period slots, clamped to [1, period].
//
// The naive float expression math.Ceil(q/100*float64(period)) over-ranks 40
// integer (q, period) combinations in [1,100]x[1,300] — e.g. q=7, period=100
// evaluates 0.07*100 to 7.000000000000001 and rounds the rank up to 8,
// charging the wrong slot's volume. Integral percentiles therefore use exact
// integer arithmetic, and fractional ones an epsilon-guarded ceiling.
func percentileRank(q float64, period int) int {
	var rank int
	if q == math.Trunc(q) {
		rank = (int(q)*period + 99) / 100
	} else {
		v := q / 100 * float64(period)
		rank = int(math.Ceil(v - 1e-9*(1+math.Abs(v))))
	}
	if rank < 1 {
		rank = 1
	}
	if rank > period {
		rank = period
	}
	return rank
}

// ChargedVolume computes the charged volume for one link given the per-slot
// volumes observed so far. Slots beyond len(volumes) and up to PeriodSlots
// count as zero-traffic slots, exactly as an ISP meter would record them.
// When more than PeriodSlots volumes are recorded the period is extended to
// cover them (see Ledger for the ledger-wide consistent treatment).
func (c Charging) ChargedVolume(volumes []float64) float64 {
	return c.chargedVolume(volumes, c.PeriodSlots)
}

// chargedVolume is ChargedVolume over an explicit period, which must be at
// least c.PeriodSlots; recorded slots beyond it still extend it.
//
// The arbitrary-q configuration surface (the postcard-server -q flag, or a
// Charging literal that skipped Validate) can reach this with percentiles
// Validate would reject, so the edges are guarded here rather than assumed
// away: q <= 0 (or NaN) charges nothing — every sample sits at or above the
// 0th percentile, so no slot's volume is attributable — and a ledger with
// fewer recorded samples than the percentile rank pads with the zero-traffic
// slots an ISP meter would have recorded (rank <= zeros charges 0).
func (c Charging) chargedVolume(volumes []float64, period int) float64 {
	if len(volumes) == 0 || c.Q <= 0 || math.IsNaN(c.Q) {
		return 0
	}
	if c.Q >= 100 {
		peak := 0.0
		for _, v := range volumes {
			if v > peak {
				peak = v
			}
		}
		return peak
	}
	if len(volumes) > period {
		period = len(volumes)
	}
	rank := percentileRank(c.Q, period) // 1-based
	zeros := period - len(volumes)
	if rank <= zeros {
		return 0
	}
	sorted := make([]float64, len(volumes))
	copy(sorted, volumes)
	sort.Float64s(sorted)
	return sorted[rank-zeros-1]
}

// Ledger records, per directed link, the traffic volume of every slot, and
// exposes the charging-relevant aggregates the optimizer needs: the charged
// volume so far (X_ij(t-1) in the paper) and per-slot usage.
type Ledger struct {
	nw      *Network
	scheme  Charging
	volumes [][]float64 // [linkIndex][slot], grown on demand
	maxSlot int         // highest slot with recorded traffic, -1 when none
}

// NewLedger creates an empty ledger for the network under the scheme.
func NewLedger(nw *Network, scheme Charging) (*Ledger, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	n := nw.NumDCs()
	return &Ledger{nw: nw, scheme: scheme, volumes: make([][]float64, n*n), maxSlot: -1}, nil
}

// Network returns the network the ledger charges for.
func (l *Ledger) Network() *Network { return l.nw }

// Scheme returns the charging scheme in force.
func (l *Ledger) Scheme() Charging { return l.scheme }

// Add records amount GB of traffic on link i->j during slot. Negative
// amounts and traffic on non-existent links are rejected.
func (l *Ledger) Add(i, j DC, slot int, amount float64) error {
	if amount < 0 || math.IsNaN(amount) || math.IsInf(amount, 0) {
		return fmt.Errorf("netmodel: invalid traffic amount %v on %d->%d", amount, i, j)
	}
	if !l.nw.HasLink(i, j) {
		return fmt.Errorf("netmodel: traffic on non-existent link %d->%d", i, j)
	}
	if slot < 0 {
		return fmt.Errorf("netmodel: negative slot %d", slot)
	}
	if amount == 0 {
		return nil
	}
	k := l.nw.idx(i, j)
	for len(l.volumes[k]) <= slot {
		l.volumes[k] = append(l.volumes[k], 0)
	}
	l.volumes[k][slot] += amount
	if slot > l.maxSlot {
		l.maxSlot = slot
	}
	return nil
}

// EffectivePeriodSlots reports the charging period actually in force: the
// scheme's PeriodSlots, extended when traffic has been recorded beyond it.
// Recording past the nominal period is permitted (an over-running
// simulation keeps metering) and extends the period uniformly for every
// link, so percentile ranks and TotalCost stay mutually consistent.
func (l *Ledger) EffectivePeriodSlots() int {
	if p := l.maxSlot + 1; p > l.scheme.PeriodSlots {
		return p
	}
	return l.scheme.PeriodSlots
}

// VolumeAt reports the volume recorded on link i->j during slot. It is 0
// for non-existent links.
func (l *Ledger) VolumeAt(i, j DC, slot int) float64 {
	if !l.nw.HasLink(i, j) {
		return 0
	}
	k := l.nw.idx(i, j)
	if slot < 0 || slot >= len(l.volumes[k]) {
		return 0
	}
	return l.volumes[k][slot]
}

// ChargedVolume reports the charged volume of link i->j over the slots
// recorded so far — the running X_ij of the paper under the 100th
// percentile, or the percentile estimate under general q. Non-existent
// links charge 0. The percentile is taken over EffectivePeriodSlots, so a
// link with fewer recorded slots than another is padded with zeros to the
// same ledger-wide period.
func (l *Ledger) ChargedVolume(i, j DC) float64 {
	if !l.nw.HasLink(i, j) {
		return 0
	}
	return l.scheme.chargedVolume(l.volumes[l.nw.idx(i, j)], l.EffectivePeriodSlots())
}

// CostPerSlot reports the cost per time interval with the current charged
// volumes: sum over links of price(i,j) * X_ij. The paper's objective is
// this quantity multiplied by the number of slots in the charging period.
func (l *Ledger) CostPerSlot() float64 {
	total := 0.0
	l.nw.Links(func(link Link, price, _ float64) {
		total += price * l.ChargedVolume(link.From, link.To)
	})
	return total
}

// TotalCost reports the cost over the whole charging period: CostPerSlot
// times EffectivePeriodSlots. When traffic was recorded beyond the nominal
// period the extension is costed consistently with the extended percentile
// ranks ChargedVolume uses, rather than silently mixing an extended
// percentile with the nominal period length.
func (l *Ledger) TotalCost() float64 {
	return l.CostPerSlot() * float64(l.EffectivePeriodSlots())
}

// Residual reports the unreserved capacity of link i->j at slot, in GB:
// base capacity minus the volume already recorded for that slot. It is
// never negative.
func (l *Ledger) Residual(i, j DC, slot int) float64 {
	r := l.nw.Capacity(i, j) - l.VolumeAt(i, j, slot)
	if r < 0 {
		return 0
	}
	return r
}

// PaidHeadroom reports how much more traffic link i->j could carry at slot
// without raising its charge, clamped by the residual capacity. This is the
// "already paid" volume the flow-based decomposition fills first.
//
// Under the 100th percentile this is max(0, X_ij - volume(slot)). Under
// general q the same safety argument generalizes per order statistics:
// raising any slot's volume up to the charged (rank-th) volume X cannot
// move the rank-th order statistic, and raising a slot already strictly
// above X cannot move it either; only growing a slot sitting exactly at X
// risks raising the charge, so such slots report zero headroom.
func (l *Ledger) PaidHeadroom(i, j DC, slot int) float64 {
	if !l.nw.HasLink(i, j) {
		return 0
	}
	charged := l.ChargedVolume(i, j)
	vol := l.VolumeAt(i, j, slot)
	r := l.Residual(i, j, slot)
	var head float64
	switch {
	case vol < charged:
		head = charged - vol
	case vol > charged:
		// Already above the percentile: this slot's volume no longer
		// influences the rank-th order statistic (q < 100 only; under
		// q = 100 the charge is the peak and vol > charged cannot occur).
		head = r
	default:
		head = 0
	}
	if head > r {
		head = r
	}
	return head
}

// Clone returns a deep copy of the ledger, used for what-if evaluation.
func (l *Ledger) Clone() *Ledger {
	cp := &Ledger{nw: l.nw, scheme: l.scheme, volumes: make([][]float64, len(l.volumes)), maxSlot: l.maxSlot}
	for k, vs := range l.volumes {
		if len(vs) == 0 {
			continue
		}
		cp.volumes[k] = append([]float64(nil), vs...)
	}
	return cp
}
