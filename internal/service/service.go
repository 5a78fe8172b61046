// Package service is the multi-tenant session layer between VisClean's
// cleaning pipeline and its frontends. A Registry owns N concurrent
// pipeline.Sessions behind opaque session ids and gives each frontend a
// uniform lifecycle:
//
//	create → iterate → (question → answer)* → iterate → … → close
//
// The registry enforces a max-sessions cap (clear "server busy"
// rejection instead of unbounded growth), runs a TTL-based idle evictor
// that snapshots abandoned sessions to disk and unblocks their parked
// question goroutines, and funnels all iteration compute through a
// bounded worker pool so at most K iterations run concurrently — the
// rest queue, and a full queue is reported as overload (backpressure)
// rather than spawning more goroutines.
//
// Sessions snapshot to versioned JSON files (see persist.go): the spec
// that created the session plus its answer log. A restarted server
// replays the log against a freshly built session and resumes exactly
// where the old one stopped — pipeline replay is deterministic (see
// pipeline.Session.Replay).
//
// This layer is reproduction infrastructure: the paper's prototype
// (§VI) is single-user, and nothing here alters the cleaning semantics
// — it only multiplexes, persists and meters them.
package service

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/datagen"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// Sentinel errors, mapped to HTTP statuses by the web frontend.
var (
	// ErrNotFound: no live or snapshotted session with that id.
	ErrNotFound = errors.New("service: session not found")
	// ErrBusy: the max-sessions cap is reached; try again later.
	ErrBusy = errors.New("service: server busy, session capacity reached")
	// ErrOverloaded: the iteration queue is full (backpressure).
	ErrOverloaded = errors.New("service: server overloaded, iteration queue full")
	// ErrIterationRunning: the session already has an iteration in flight.
	ErrIterationRunning = errors.New("service: iteration already running")
	// ErrNoQuestion: an answer arrived with no question pending.
	ErrNoQuestion = errors.New("service: no pending question")
	// ErrClosed: the session (or the whole registry) has been shut down.
	ErrClosed = errors.New("service: session closed")
	// ErrExists: a session with that id already lives here (or has a
	// snapshot on disk) — CreateWithID and Attach refuse to clobber it.
	ErrExists = errors.New("service: session id already exists")
)

// Spec describes how to (re)build a session deterministically from
// scratch. It is stored verbatim inside every snapshot, so anything a
// session's construction depends on must be in here.
type Spec struct {
	// Dataset names a synthetic generator: D1, D2 or D3.
	Dataset string `json:"dataset"`
	// Scale is the generator's scale factor, in (0, 1]; session
	// construction refuses any other.
	Scale float64 `json:"scale"`
	// Seed drives every stochastic component of the session.
	Seed int64 `json:"seed"`
	// Query is the VQL visualization query (view 0).
	Query string `json:"query"`
	// Queries are additional VQL views registered at creation, beyond
	// Query. Views added later via AddView live in the answer log, not
	// here: the spec only describes construction, and replay restores
	// mid-session views on its own (pipeline.AnswerKindV).
	Queries []string `json:"queries,omitempty"`
	// K is the CQG size.
	K int `json:"k"`
	// Selector names the CQG selection algorithm (gss, gss+, bb, abb,
	// random, single).
	Selector string `json:"selector,omitempty"`
	// Auto lets the ground-truth oracle answer instead of a human.
	Auto bool `json:"auto,omitempty"`
}

var defaultQueries = map[string]string{
	"D1": `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`,
	"D2": `VISUALIZE bar SELECT Team, SUM(#Points) FROM D2 TRANSFORM GROUP BY Team SORT Y BY DESC LIMIT 10`,
	"D3": `VISUALIZE bar SELECT Publ, AVG(Rating) FROM D3 TRANSFORM GROUP BY Publ SORT Y BY DESC LIMIT 10`,
}

// WithDefaults fills zero fields with the standard defaults. The
// registry normalizes every spec before storing it so snapshots rebuild
// the exact same session regardless of later default changes.
func (sp Spec) WithDefaults() Spec {
	if sp.Dataset == "" {
		sp.Dataset = "D1"
	}
	if sp.Scale == 0 {
		sp.Scale = 0.01
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Query == "" {
		sp.Query = defaultQueries[sp.Dataset]
	}
	if sp.K == 0 {
		sp.K = 10
	}
	if sp.Selector == "" {
		sp.Selector = "gss"
	}
	return sp
}

// ParseSelector maps a selector name to its pipeline kind.
func ParseSelector(s string) (pipeline.SelectorKind, error) {
	switch strings.ToLower(s) {
	case "", "gss":
		return pipeline.SelectGSS, nil
	case "gss+", "gssplus":
		return pipeline.SelectGSSPlus, nil
	case "bb", "b&b":
		return pipeline.SelectBB, nil
	case "abb", "alphabb":
		return pipeline.SelectAlphaBB, nil
	case "random":
		return pipeline.SelectRandom, nil
	case "single":
		return pipeline.SelectSingle, nil
	default:
		return 0, fmt.Errorf("unknown selector %q", s)
	}
}

// Factory builds a live pipeline session (plus an optional auto-user
// that answers for spec.Auto sessions) from a normalized spec. Injected
// so tests can substitute cheap fixtures; StandardFactory is the
// datagen-backed production implementation.
type Factory func(spec Spec) (*pipeline.Session, pipeline.User, error)

// StandardFactory builds sessions over the paper's synthetic datasets.
// Construction is deterministic in the spec, which is what makes
// snapshot replay sound.
func StandardFactory(spec Spec) (*pipeline.Session, pipeline.User, error) {
	return buildSession(spec, nil)
}

// CachedFactory builds the same sessions as StandardFactory but threads
// a shared artifact cache (DESIGN.md §12) into the pipeline, so
// sessions over identical dataset content reuse each other's setup
// artifacts. The registry installs this automatically when Config
// leaves Factory nil; it is exported so a custom Factory wrapper can
// keep the cache.
func CachedFactory(cache *artifact.Cache) Factory {
	return func(spec Spec) (*pipeline.Session, pipeline.User, error) {
		return buildSession(spec, cache)
	}
}

func buildSession(spec Spec, cache *artifact.Cache) (*pipeline.Session, pipeline.User, error) {
	sel, err := ParseSelector(spec.Selector)
	if err != nil {
		return nil, nil, err
	}
	// A spec arrives from outside: create and import bodies, snapshot
	// files. 1 is the paper's Table IV size; larger tables are
	// cmd/datagen's job, and a scale at or below 0 would silently build
	// a paper-scale table.
	if !(spec.Scale > 0 && spec.Scale <= 1) {
		return nil, nil, fmt.Errorf("scale %g outside (0, 1]", spec.Scale)
	}
	d, err := datagen.ByName(spec.Dataset, datagen.Config{Scale: spec.Scale, Seed: spec.Seed})
	if err != nil {
		return nil, nil, err
	}
	q, err := vql.Parse(spec.Query)
	if err != nil {
		return nil, nil, err
	}
	pcfg := pipeline.Config{K: spec.K, Seed: spec.Seed, Selector: sel, Artifacts: cache}
	for _, src := range spec.Queries {
		vq, err := vql.Parse(src)
		if err != nil {
			return nil, nil, fmt.Errorf("view query %q: %w", src, err)
		}
		pcfg.Queries = append(pcfg.Queries, vq)
	}
	if tv, err := q.Execute(d.Truth.Clean); err == nil {
		pcfg.TruthVis = tv
	}
	ps, err := pipeline.NewSession(d.Dirty, q, d.KeyColumns, pcfg)
	if err != nil {
		return nil, nil, err
	}
	var auto pipeline.User
	if spec.Auto {
		auto = oracle.New(d.Truth, spec.Seed)
	}
	return ps, auto, nil
}

// Config parameterizes a Registry. Zero values select sane defaults.
type Config struct {
	// MaxSessions caps concurrently live sessions (default 64). Creates
	// and restores beyond the cap fail with ErrBusy.
	MaxSessions int
	// IdleTTL is how long a session may sit untouched (no state poll,
	// answer or iterate) before the evictor snapshots and drops it
	// (default 15m).
	IdleTTL time.Duration
	// SweepInterval is the evictor period (default IdleTTL/4, clamped
	// to [1s, 1m]).
	SweepInterval time.Duration
	// Workers bounds concurrently executing iterations (default 4).
	Workers int
	// QueueDepth bounds iterations waiting for a worker (default
	// 2×Workers). A full queue rejects with ErrOverloaded.
	QueueDepth int
	// AnswerTimeout is the longest a question stays parked waiting for
	// an answer before it resolves as skipped (default 10m).
	AnswerTimeout time.Duration
	// SnapshotDir persists session snapshots; empty disables
	// persistence (eviction then discards state).
	SnapshotDir string
	// Factory builds sessions. The default wires the registry's shared
	// artifact cache through StandardFactory; a custom Factory bypasses
	// the cache unless it threads one itself (see CachedFactory).
	Factory Factory
	// ArtifactBudget caps the registry's cross-session artifact cache
	// (DESIGN.md §12) in bytes. 0 selects the 256 MiB default; negative
	// disables the budget (never evict).
	ArtifactBudget int64
	// NoArtifactCache disables the shared artifact cache entirely:
	// every session builds its indexes and models privately.
	NoArtifactCache bool
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// teardownAfter is the teardown-timeout clock, injectable by tests
	// so a wedged-iteration timeout can fire deterministically
	// (default time.After).
	teardownAfter func(time.Duration) <-chan time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 15 * time.Minute
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.IdleTTL / 4
		if c.SweepInterval < time.Second {
			c.SweepInterval = time.Second
		}
		if c.SweepInterval > time.Minute {
			c.SweepInterval = time.Minute
		}
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.AnswerTimeout == 0 {
		c.AnswerTimeout = 10 * time.Minute
	}
	if c.teardownAfter == nil {
		c.teardownAfter = time.After
	}
	if c.ArtifactBudget == 0 {
		c.ArtifactBudget = 256 << 20
	}
	if c.Factory == nil {
		c.Factory = StandardFactory
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}
