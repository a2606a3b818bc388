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
// A Client replaces hand-assembling a Config literal: the same knobs are
// exposed as self-documenting options, and the zero-option New() is the
// paper's default optimizer.
type Client struct {
	conf   core.Config
	warm   bool
	solver *core.Solver // lazily created when warm is set
}

// New builds a Postcard optimizer client. Without options it behaves
// exactly like Solve(ledger, files, t, nil): arc-based pricing, deadline
// pruning and delayed column generation on, storage allowed everywhere.
func New(opts ...Option) *Client {
	c := &Client{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Solve optimizes the files generated at slot t against the ledger. See
// Solve (stateless) and IncrementalSolver (warm-started) for the exact
// semantics; which one backs the call depends on WithWarmStart.
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

// Config returns a copy of the core configuration the client resolved from
// its options, for callers that need to hand it to lower-level APIs.
func (c *Client) Config() Config { return c.conf }

// Scheduler adapts the client for the online simulator, preserving its
// configuration and warm-start choice.
func (c *Client) Scheduler() Scheduler {
	conf := c.conf
	return &PostcardScheduler{Config: &conf, WarmStart: c.warm}
}

// WithEpsilon sets the tie-breaking weight that prefers fewer transfers
// among cost-equal plans. Zero selects the default.
func WithEpsilon(eps float64) Option {
	return func(c *Client) { c.conf.Epsilon = eps }
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

// WithPricingWorkers bounds the goroutine pool the path-pricing oracle fans
// per-file subproblems across. Zero uses GOMAXPROCS. Results are
// bit-identical for every worker count.
func WithPricingWorkers(n int) Option {
	return func(c *Client) { c.conf.PricingWorkers = n }
}

// WithWarmStart makes the client keep incremental solver state between
// Solve calls: consecutive slots reuse the time-expanded graph skeleton and
// warm-start the LP from the previous basis.
func WithWarmStart() Option {
	return func(c *Client) { c.warm = true }
}

// WithoutPruning disables deadline-reachability variable pruning
// (diagnostic; the pruned model is provably equivalent).
func WithoutPruning() Option {
	return func(c *Client) { c.conf.DisablePruning = true }
}

// WithoutColumnGeneration materializes the full arc model up front instead
// of generating columns on demand (diagnostic; no effect under
// PricingPath, whose columns are inherently generated).
func WithoutColumnGeneration() Option {
	return func(c *Client) { c.conf.DisableColGen = true }
}

// WithoutVerification skips the independent schedule verifier on every
// optimal solve (it is cheap; disable it only in tight inner loops).
func WithoutVerification() Option {
	return func(c *Client) { c.conf.SkipVerify = true }
}

// WithLPOptions overrides the underlying LP solver options (tolerances,
// iteration limits, presolve). Most callers never need this.
func WithLPOptions(opts *LPOptions) Option {
	return func(c *Client) { c.conf.LP = opts }
}
