package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/server"
)

const (
	loadWorkers   = 2                       // load-generating goroutines and keep-alive connections
	overloadLimit = 1000 * time.Millisecond // a generator this far behind marks the run overloaded
	readyTimeout  = 20 * time.Second
)

// admitAnswer is what the generator keeps of one POST /v1/transfers answer.
type admitAnswer struct {
	ID       int  `json:"id"`
	Admitted bool `json:"admitted"`
	Slot     int  `json:"slot"`
}

// target is the daemon as the load generator drives it: the real binary
// over loopback HTTP, or an in-process server.Server called directly. An
// error is a failed operation (transport error, 5xx, unexpected 4xx); a 422
// is a valid answer with Admitted false.
type target interface {
	admit(o *op) (ans admitAnswer, respBytes int, err error)
	plan(id int) error
	advance() error
	status() (server.Status, error)
}

// httpTarget drives the child process over two keep-alive connections.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(addr string) *httpTarget {
	return &httpTarget{
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     loadWorkers,
				MaxIdleConnsPerHost: loadWorkers,
				DisableCompression:  true,
			},
		},
	}
}

// do sends one request and reads the whole answer; want lists the status
// codes that are answers rather than failures.
func (h *httpTarget) do(method, path string, body []byte, want ...int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return code, data, nil
		}
	}
	return resp.StatusCode, data, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
}

func (h *httpTarget) admit(o *op) (admitAnswer, int, error) {
	_, data, err := h.do("POST", "/v1/transfers", o.Body, http.StatusOK, http.StatusUnprocessableEntity)
	if err != nil {
		return admitAnswer{}, 0, err
	}
	var ans admitAnswer
	if err := json.Unmarshal(data, &ans); err != nil {
		return admitAnswer{}, len(data), fmt.Errorf("decoding transfer answer: %w", err)
	}
	return ans, len(data), nil
}

func (h *httpTarget) plan(id int) error {
	_, _, err := h.do("GET", "/v1/plans/"+strconv.Itoa(id), nil, http.StatusOK)
	return err
}

func (h *httpTarget) advance() error {
	_, _, err := h.do("POST", "/v1/slots/advance", nil, http.StatusOK)
	return err
}

func (h *httpTarget) status() (server.Status, error) {
	var st server.Status
	_, data, err := h.do("GET", "/v1/status", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// inprocTarget calls a server.Server directly: the traced run's view of the
// server layer, and the smoke pass's stand-in for the binary.
type inprocTarget struct{ srv *server.Server }

func newInprocTarget(nw *netmodel.Network) (*inprocTarget, error) {
	srv, err := server.New(server.Config{
		Network:  nw,
		Charging: netmodel.Charging{Q: 100, PeriodSlots: daemonPeriod},
	})
	if err != nil {
		return nil, err
	}
	return &inprocTarget{srv}, nil
}

func (t *inprocTarget) admit(o *op) (admitAnswer, int, error) {
	resp, err := t.srv.Admit(o.Req)
	if err != nil {
		return admitAnswer{}, 0, err
	}
	return admitAnswer{ID: resp.ID, Admitted: resp.Admitted, Slot: resp.Slot}, 0, nil
}

func (t *inprocTarget) plan(id int) error {
	if _, ok := t.srv.PlanByID(id); !ok {
		return fmt.Errorf("no plan for file %d", id)
	}
	return nil
}

func (t *inprocTarget) advance() error {
	_, err := t.srv.AdvanceSlot()
	return err
}

func (t *inprocTarget) status() (server.Status, error) { return t.srv.Status(), nil }

// child is a running postcard-server process.
type child struct {
	cmd  *exec.Cmd
	addr string
	logs sync.WaitGroup
}

// startChild spawns the daemon on an ephemeral port, learns the port from
// its "listening on" log line and polls /v1/status until it answers. The
// context kills the child when the benchmark is interrupted; stop kills it
// on every other path.
func startChild(ctx context.Context, bin, instancePath string) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, "-instance", instancePath, "-listen", "127.0.0.1:0", "-period", strconv.Itoa(daemonPeriod))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd}
	addrCh := make(chan string, 1)
	c.logs.Add(1)
	go func() {
		// The daemon logs one line per committed slot; keep draining so
		// it never blocks on a full pipe.
		defer c.logs.Done()
		sc := bufio.NewScanner(stderr)
		found := false
		var head []string // what it said instead, for the error report
		for sc.Scan() {
			line := sc.Text()
			if found {
				continue
			}
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrCh <- strings.TrimSpace(addr)
				found = true
				continue
			}
			head = append(head, line)
		}
		if !found {
			fmt.Fprintf(os.Stderr, "postcard-server exited before listening:\n%s\n", strings.Join(head, "\n"))
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			c.stop()
			return nil, errors.New("postcard-server exited before it listened")
		}
		c.addr = addr
	case <-time.After(readyTimeout):
		c.stop()
		return nil, errors.New("postcard-server did not log its address in time")
	}
	tgt := newHTTPTarget(c.addr)
	for deadline := time.Now().Add(readyTimeout); ; {
		if _, err := tgt.status(); err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("postcard-server did not answer /v1/status in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rssPeakMB reads a live process's peak resident set (VmHWM).
func rssPeakMB(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0 // no procfs: the diagnostic reads 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop kills the child and waits until it and its log reader have ended.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already exited is fine
	c.logs.Wait()
	_ = c.cmd.Wait() // "signal: killed" is the expected outcome
}

// sample is one operation of the timed phase.
type sample struct {
	Kind    opKind
	Skipped bool          // a read with no admitted transfer to name yet
	Err     error         // failed operation
	Late    time.Duration // call start minus due time: how far behind the generator ran
	Latency time.Duration // answer fully read minus due time
	Bytes   int           // transfer answers: response body size
	Answer  admitAnswer   // transfer answers
}

// loadRun is the shared state of one repetition's warm-up and timed phase.
type loadRun struct {
	tgt target
	// answers[i] is the answer to the rep's i-th transfer, stored when it
	// arrives; reads resolve their target through it.
	answers []atomic.Pointer[admitAnswer]
	tr      *tracer
}

// issue performs one operation and returns its sample; due is the instant
// latency is charged from.
func (l *loadRun) issue(idx int, o *op, due time.Time) sample {
	s := sample{Kind: o.Kind}
	id := 0
	if o.Kind == opRead {
		// The newest admitted transfer at or before the drawn one.
		for k := o.Transfer; k >= 0 && id == 0; k-- {
			if a := l.answers[k].Load(); a != nil && a.Admitted {
				id = a.ID
			}
		}
		if id == 0 {
			s.Skipped = true
			return s
		}
	}
	opSpan := l.tr.reserve()
	start := time.Now()
	switch o.Kind {
	case opTransfer:
		s.Answer, s.Bytes, s.Err = l.tgt.admit(o)
		if s.Err == nil {
			l.answers[o.Transfer].Store(&s.Answer)
		}
	case opRead:
		s.Err = l.tgt.plan(id)
	case opAdvance:
		s.Err = l.tgt.advance()
	}
	end := time.Now()
	s.Late, s.Latency = start.Sub(due), end.Sub(due)
	if l.tr != nil {
		l.tr.leaf(opSpan, idx, "server."+o.Kind.String(), start, end)
		l.tr.record(opSpan, 0, idx, "gen.op", due, end)
	}
	return s
}

// openLoop issues ops on their schedule from loadWorkers goroutines: each
// takes the next op, sleeps until it is due and sends it, however late the
// previous answers were. Latency runs from the due time, so a stall charges
// every request queued behind it.
func (l *loadRun) openLoop(ops []op) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := t0.Add(ops[i].Due)
				time.Sleep(time.Until(due))
				samples[i] = l.issue(i, &ops[i], due)
			}
		}()
	}
	wg.Wait()
	return samples
}

// daemonRepResult is what one repetition against one target measured.
type daemonRepResult struct {
	Setup    time.Duration
	Samples  []sample
	Status   server.Status // after the closing advance
	Cost     float64       // Status.CostPerSlot
	Direct   float64       // directCost of the admitted transfers
	RSSPeak  float64       // MB, of the process the server ran in
	Problems []string      // failed correctness checks
	Answered int           // transfers answered, warm-up included
}

// finish closes the last slot, reads /v1/status and checks the daemon's
// books against what the generator sent.
func (l *loadRun) finish(rep *daemonRep, res *daemonRepResult) error {
	if err := l.tgt.advance(); err != nil {
		return fmt.Errorf("closing advance: %w", err)
	}
	st, err := l.tgt.status()
	if err != nil {
		return fmt.Errorf("reading status: %w", err)
	}
	res.Status, res.Cost = st, st.CostPerSlot
	var admitted []netmodel.File
	for i := range l.answers {
		a := l.answers[i].Load()
		if a == nil {
			continue
		}
		res.Answered++
		if a.Admitted {
			req := rep.Requests[i]
			admitted = append(admitted, netmodel.File{
				ID: a.ID, Src: netmodel.DC(req.Src), Dst: netmodel.DC(req.Dst),
				Size: req.SizeGB, Deadline: req.Deadline, Release: a.Slot,
			})
		}
	}
	res.Direct = directCost(rep.Network, admitted)
	if got := st.Admission.Admits + st.Admission.Rejects; got != res.Answered {
		res.Problems = append(res.Problems, fmt.Sprintf("daemon counted %d admission decisions, generator got %d answers", got, res.Answered))
	}
	if st.PendingFiles != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d files still pending after the closing advance", st.PendingFiles))
	}
	return nil
}

// runDaemonRep runs one repetition of a daemon workload: set-up (a fresh
// daemon, ready, warm-up traffic committed), the timed open loop, and the
// closing checks. With bin empty the daemon is an in-process server.
func runDaemonRep(ctx context.Context, rep *daemonRep, bin, workDir string, tr *tracer) (*daemonRepResult, error) {
	res := &daemonRepResult{}
	l := &loadRun{answers: make([]atomic.Pointer[admitAnswer], len(rep.Requests))} // the warm-up is not traced
	var proc *child
	setupStart := time.Now()
	if bin == "" {
		tgt, err := newInprocTarget(rep.Network)
		if err != nil {
			return nil, err
		}
		defer tgt.srv.Close()
		l.tgt = tgt
	} else {
		instancePath := filepath.Join(workDir, "instance.json")
		f, err := os.Create(instancePath)
		if err != nil {
			return nil, err
		}
		err = netmodel.InstanceOf(rep.Network, nil).WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		proc, err = startChild(ctx, bin, instancePath)
		if err != nil {
			return nil, err
		}
		defer proc.stop()
		l.tgt = newHTTPTarget(proc.addr)
	}
	for i, s := range l.openLoop(rep.Warm) {
		if s.Err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", rep.Warm[i].Kind, s.Err)
		}
	}
	res.Setup = time.Since(setupStart)

	l.tr = tr
	res.Samples = l.openLoop(rep.Timed)
	if err := l.finish(rep, res); err != nil {
		return nil, err
	}
	pid := os.Getpid()
	if proc != nil {
		pid = proc.cmd.Process.Pid
	}
	res.RSSPeak = rssPeakMB(pid)
	return res, ctx.Err()
}
