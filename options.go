package postcard

import (
	"github.com/interdc/postcard/internal/core"
)

// Option configures a Client built with New. Options are applied in order,
// so later options win on conflict.
type Option func(*Client)

// Client is the configured entry point to the Postcard optimizer. Build one
// with New and call Solve per slot; with WithWarmStart the client keeps the
// incremental solver's state (graph skeleton, simplex basis) between calls,
// otherwise every call is independent.
//
// The zero-option New() is the paper's default optimizer.
type Client struct {
	conf   core.Config
	warm   bool
	solver *core.Solver // lazily created when warm is set
}

// New builds a Postcard optimizer client. Without options it is the
// paper's default optimizer: arc-based pricing, deadline pruning and
// delayed column generation on, storage allowed everywhere.
func New(opts ...Option) *Client {
	c := &Client{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Solve optimizes the files generated at slot t against the ledger; the
// ledger is not modified (apply the returned schedule to commit it).
// Without WithWarmStart every call is independent: it builds its
// time-expanded graph and LP from scratch and cold-starts the simplex. With
// it, an IncrementalSolver backs the calls.
func (c *Client) Solve(ledger *Ledger, files []File, t int) (*Result, error) {
	if c.warm {
		if c.solver == nil {
			conf := c.conf
			c.solver = core.NewSolver(&conf)
		}
		return c.solver.Solve(ledger, files, t)
	}
	conf := c.conf
	return core.Solve(ledger, files, t, &conf)
}

// Scheduler adapts the client for the online simulator, preserving its
// configuration and warm-start choice.
func (c *Client) Scheduler() Scheduler {
	conf := c.conf
	return &PostcardScheduler{Config: &conf, WarmStart: c.warm}
}

// WithStoragePolicy restricts where store-and-forward holdovers may occur.
func WithStoragePolicy(p StoragePolicy) Option {
	return func(c *Client) { c.conf.Storage = p }
}

// WithPricing selects the LP formulation: PricingArc (the default,
// per-arc flow variables with delayed column generation) or PricingPath
// (Dantzig–Wolfe path pricing, built for 100+ datacenter overlays).
func WithPricing(mode PricingMode) Option {
	return func(c *Client) { c.conf.Pricing = mode }
}

// WithWarmStart makes the client keep incremental solver state between
// Solve calls: consecutive slots reuse the time-expanded graph skeleton and
// warm-start the LP from the previous basis.
func WithWarmStart() Option {
	return func(c *Client) { c.warm = true }
}
