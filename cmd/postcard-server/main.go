// Command postcard-server runs the Postcard admission daemon: an
// HTTP/JSON control plane that admits inter-datacenter transfers through
// the two-tier admission pipeline (fast single-path admission, background
// LP republish) over a charging ledger, with a slot clock, Prometheus
// metrics, and snapshot/restore across restarts.
//
// Usage:
//
//	postcard-server -instance instance.json -listen :8080
//	postcard-server -instance instance.json -slot-ms 1000 -snapshot state.json
//	postcard-server -restore state.json -listen :8080
//
// Endpoints:
//
//	POST /v1/transfers      {"src":0,"dst":3,"size_gb":20,"deadline":3}
//	GET  /v1/plans/{id}     per-file schedule (provisional or committed)
//	GET  /v1/status         slot, costs, counters
//	POST /v1/slots/advance  close the slot's batch (manual clock)
//	POST /v1/snapshot       write a state snapshot
//	GET  /metrics           Prometheus text format
//
// Signals: SIGINT/SIGTERM drain the open batch and exit (writing a final
// snapshot when -snapshot is set); SIGHUP re-reads -instance and applies
// its link prices to the running server (topology and capacities must be
// unchanged).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/interdc/postcard/internal/cliutil"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/server"
)

// Connection bounds of the listener: a client that stalls sending its
// headers or body, or parks an idle keep-alive connection, is cut off
// rather than holding a goroutine and a socket forever. Every request body
// of this API fits one packet, so the limits are generous.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "postcard-server:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	instancePath := flag.String("instance", "", "topology/pricing instance JSON (required unless -restore)")
	restorePath := flag.String("restore", "", "resume from a snapshot written by -snapshot or POST /v1/snapshot")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	q := flag.Float64("q", 100, "charging percentile in (0, 100]")
	period := flag.Int("period", 100, "charging period, slots")
	slotMS := flag.Int("slot-ms", 0, "advance the slot clock every this many milliseconds (0 = manual)")
	snapshotPath := flag.String("snapshot", "", "write state snapshots to this file (on shutdown and POST /v1/snapshot)")
	drain := flag.String("drain", "commit", "shutdown policy for the open batch: commit | rollback")
	noRepublish := flag.Bool("no-republish", false, "disable the LP republisher entirely")
	commitOnly := flag.Bool("republish-on-commit-only", false, "republish only when a slot commits (one LP solve per slot, bit-comparable to a sequential postcard-fast run)")
	prof := cliutil.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	var rollback bool
	switch *drain {
	case "commit":
	case "rollback":
		rollback = true
	default:
		return fmt.Errorf("-drain must be commit or rollback, got %q", *drain)
	}

	cfg := server.Config{
		Charging:              netmodel.Charging{Q: *q, PeriodSlots: *period},
		SlotEvery:             time.Duration(*slotMS) * time.Millisecond,
		SnapshotPath:          *snapshotPath,
		DrainRollback:         rollback,
		NoRepublish:           *noRepublish,
		RepublishOnCommitOnly: *commitOnly,
		Logf:                  log.Printf,
	}

	var srv *server.Server
	switch {
	case *restorePath != "":
		var err error
		srv, err = server.RestoreFile(cfg, *restorePath)
		if err != nil {
			return err
		}
		log.Printf("restored from %s (slot %d)", *restorePath, srv.Status().Slot)
	case *instancePath != "":
		nw, err := loadNetwork(*instancePath)
		if err != nil {
			return err
		}
		cfg.Network = nw
		srv, err = server.New(cfg)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -instance or -restore is required")
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-serveErr:
			srv.Close()
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if *instancePath == "" {
					log.Printf("SIGHUP: no -instance file to reload")
					continue
				}
				if err := reloadPricing(srv, *instancePath); err != nil {
					log.Printf("SIGHUP: %v", err)
				}
				continue
			}
			log.Printf("%s: shutting down", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := httpSrv.Shutdown(ctx)
			cancel()
			if cerr := srv.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if errors.Is(err, http.ErrServerClosed) {
				err = nil
			}
			return err
		}
	}
}

func loadNetwork(path string) (*netmodel.Network, error) {
	inst, err := cliutil.ReadInstanceFile(path)
	if err != nil {
		return nil, err
	}
	nw, _, err := inst.Build()
	if err != nil {
		return nil, err
	}
	return nw, nil
}

func reloadPricing(srv *server.Server, path string) error {
	inst, err := cliutil.ReadInstanceFile(path)
	if err != nil {
		return err
	}
	return srv.ReloadPricing(inst)
}
