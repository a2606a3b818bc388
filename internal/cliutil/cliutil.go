// Package cliutil holds the flag plumbing shared by the postcard commands:
// scheduler-list parsing against the facade's registry (with built-in
// "help" output), CPU/heap profiling flags, worker-count validation, and
// instance/trace file IO. Only cmd/* imports it; it may itself import the
// root postcard package (the facade never depends on commands).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/interdc/postcard"
	"github.com/interdc/postcard/internal/profiling"
)

// ErrSchedulerHelp is returned by ParseSchedulers when the list is the
// literal "help": the command should print SchedulerHelp() and exit zero.
var ErrSchedulerHelp = errors.New("cliutil: scheduler help requested")

// ParseSchedulers resolves a comma-separated scheduler list against the
// registry, returning fresh instances in listed order. The literal "help"
// (alone or in the list) returns ErrSchedulerHelp.
func ParseSchedulers(list string) ([]postcard.Scheduler, error) {
	var out []postcard.Scheduler
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "help" {
			return nil, ErrSchedulerHelp
		}
		s, err := postcard.SchedulerByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no schedulers given")
	}
	return out, nil
}

// SchedulerHelp renders the scheduler registry as an aligned two-column
// listing for -scheduler(s) help output.
func SchedulerHelp() string {
	infos := postcard.Schedulers()
	width := 0
	for _, info := range infos {
		if len(info.Name) > width {
			width = len(info.Name)
		}
	}
	var b strings.Builder
	b.WriteString("available schedulers:\n")
	for _, info := range infos {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, info.Name, info.Description)
	}
	return b.String()
}

// SchedulerFlagUsage is the shared usage string for -scheduler(s) flags.
const SchedulerFlagUsage = `comma-separated scheduler list ("help" lists all)`

// Profile carries the -cpuprofile/-memprofile flag values registered by
// AddProfileFlags.
type Profile struct {
	cpu *string
	mem *string
}

// AddProfileFlags registers the standard profiling flags on fs (use
// flag.CommandLine for the process flags).
func AddProfileFlags(fs *flag.FlagSet) *Profile {
	return &Profile{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins profiling per the parsed flags and returns the stop
// function; both are no-ops when neither flag was set. Call stop via defer
// and propagate its error.
func (p *Profile) Start() (stop func() error, err error) {
	return profiling.Start(*p.cpu, *p.mem)
}

// ValidateWorkers rejects non-positive -workers values.
func ValidateWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", n)
	}
	return nil
}

// ReadInstanceFile loads an instance JSON file; "-" reads stdin.
func ReadInstanceFile(path string) (*postcard.Instance, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("reading instance: %w", err)
		}
		defer f.Close()
		r = f
	}
	return postcard.ReadInstance(r)
}

// WriteInstanceFile writes an instance as JSON to path.
func WriteInstanceFile(path string, inst *postcard.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := inst.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile loads a workload trace recorded with WriteTraceFile.
func ReadTraceFile(path string) (*postcard.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return postcard.ReadTrace(f)
}

// WriteTraceFile records a workload trace as JSON to path.
func WriteTraceFile(path string, trace *postcard.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
