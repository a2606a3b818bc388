package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	postcard "github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/server"
	"github.com/interdc/postcard/internal/sim"
)

// Everything a run feeds the program under test is drawn here, from the
// seed alone, before any clock starts: the program receives the generated
// instance and requests and never the seed.

const (
	daemonCapacityGB = 100 // per link and slot
	daemonPeriod     = 4096
	// Set-up ends with a warm-up of fixed length: the workload's own traffic
	// for daemonWarmup, or figureWarmup of warmupSlots-slot figures. A fixed
	// length keeps setup_s from doubling whenever the host slows down (see
	// README.md), while work moved into start-up still adds to it.
	daemonWarmup = 2 * time.Second
	figureWarmup = time.Second
	smokeWarmup  = 20 * time.Millisecond
	warmupSlots  = 2
	// readLag keeps a plan read this many transfers behind the newest one,
	// so the transfer it names has been answered when the read is due.
	readLag      = 8
	transferFrac = 0.8
)

// repSeed derives the seed of one repetition, so that repetitions of a run
// measure different instances of the same distribution: a run's value then
// averages over instances and moves less from seed to seed.
func repSeed(seed int64, rep int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(rep+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h >> 1)
}

type opKind uint8

const (
	opTransfer opKind = iota
	opRead
	opAdvance
)

func (k opKind) String() string { return [...]string{"transfer", "read", "advance"}[k] }

// op is one scheduled request. Due is its offset from the start of the
// timed phase (0 throughout the closed-loop warm-up).
type op struct {
	Due      time.Duration          `json:"due_ns"`
	Kind     opKind                 `json:"kind"`
	Req      server.TransferRequest `json:"req"`      // opTransfer
	Body     []byte                 `json:"body"`     // opTransfer: Req as JSON
	Transfer int                    `json:"transfer"` // opTransfer: index among the rep's transfers; opRead: the transfer to read
}

// daemonRep is the generated input of one daemon repetition.
type daemonRep struct {
	Network *netmodel.Network
	Warm    []op // the end of set-up: the same open loop, closed by an advance
	Timed   []op // the measured open loop
	// Requests[i] is the rep's i-th transfer, Warm and Timed together.
	Requests []server.TransferRequest
}

// genDaemonRep draws one repetition: link prices U[1,10] on a complete
// graph, then Poisson arrivals of transfers (sizes U[10,100] GB, deadlines
// U{1..3}, uniform endpoints) and plan reads, with a slot advance after
// every AdvanceEvery-th transfer, for warm and then for timed.
func genDaemonRep(w workloadSpec, seed int64, warm, timed time.Duration) (*daemonRep, error) {
	rng := rand.New(rand.NewSource(seed))
	prices := make([]float64, w.DCs*w.DCs)
	for i := range prices {
		prices[i] = 1 + 9*rng.Float64()
	}
	nw, err := netmodel.Complete(w.DCs, func(i, j netmodel.DC) float64 {
		return prices[int(i)*w.DCs+int(j)]
	}, daemonCapacityGB)
	if err != nil {
		return nil, err
	}
	rep := &daemonRep{Network: nw}
	next := func(due time.Duration) []op {
		if len(rep.Requests) > readLag && rng.Float64() >= transferFrac {
			return []op{{Due: due, Kind: opRead, Transfer: rng.Intn(len(rep.Requests) - readLag)}}
		}
		req := server.TransferRequest{
			Src:      rng.Intn(w.DCs),
			SizeGB:   10 + 90*rng.Float64(),
			Deadline: 1 + rng.Intn(3),
		}
		req.Dst = (req.Src + 1 + rng.Intn(w.DCs-1)) % w.DCs
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a struct of numbers always encodes
		}
		out := []op{{Due: due, Kind: opTransfer, Req: req, Body: body, Transfer: len(rep.Requests)}}
		rep.Requests = append(rep.Requests, req)
		if len(rep.Requests)%w.AdvanceEvery == 0 {
			out = append(out, op{Due: due, Kind: opAdvance})
		}
		return out
	}
	arrivals := func(length time.Duration) (ops []op) {
		for due := time.Duration(0); ; {
			due += time.Duration(rng.ExpFloat64() / w.Rate * float64(time.Second))
			if due >= length {
				return ops
			}
			ops = append(ops, next(due)...)
		}
	}
	rep.Warm = append(arrivals(warm), op{Due: warm, Kind: opAdvance})
	rep.Timed = arrivals(timed)
	return rep, nil
}

// encodeSchedule renders a repetition's requests as bytes; the same seed
// must give the same bytes.
func (r *daemonRep) encodeSchedule() []byte {
	data, err := json.Marshal(struct {
		Instance *netmodel.Instance
		Warm     []op
		Timed    []op
	}{netmodel.InstanceOf(r.Network, nil), r.Warm, r.Timed})
	if err != nil {
		panic(err)
	}
	return data
}

// figureConfig builds the sim.FigureConfig of one figure repetition with
// fresh scheduler instances from the registry (schedulers are stateful).
func figureConfig(w workloadSpec, seed int64, slots, runs int) (sim.FigureConfig, error) {
	setting, err := netmodel.SettingByFigure(w.Figure)
	if err != nil {
		return sim.FigureConfig{}, err
	}
	scale := sim.CIScale()
	if w.DCs > 0 {
		scale = sim.DCScale(w.DCs)
	}
	scale.Name = w.Name
	scale.Slots, scale.Runs = slots, runs
	scale.FilesMin, scale.FilesMax = w.FilesMin, w.FilesMax
	scale.Seed = seed
	scale.Workers = 0 // sequential: the workload times the solver, not the fan-out
	cfg := sim.FigureConfig{Setting: setting, Scale: scale}
	for _, name := range w.Schedulers {
		s, err := postcard.SchedulerByName(name)
		if err != nil {
			return sim.FigureConfig{}, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		cfg.Schedulers = append(cfg.Schedulers, s)
	}
	return cfg, nil
}

// directCost is the cost per slot of the naive sender that the quality
// metric is normalised by: every file goes over its direct link at its
// desired rate size/deadline, ignoring capacity, and each link is charged
// its peak slot volume (100th-percentile charging).
func directCost(nw *netmodel.Network, files []netmodel.File) float64 {
	type key struct {
		link netmodel.Link
		slot int
	}
	vol := make(map[key]float64)
	for _, f := range files {
		for s := f.Release; s < f.Release+f.Deadline; s++ {
			vol[key{netmodel.Link{From: f.Src, To: f.Dst}, s}] += f.DesiredRate()
		}
	}
	peak := make(map[netmodel.Link]float64)
	for k, v := range vol {
		peak[k.link] = max(peak[k.link], v)
	}
	cost := 0.0
	nw.Links(func(l netmodel.Link, price, _ float64) {
		cost += price * peak[l] // fixed link order keeps the sum reproducible
	})
	return cost
}
