// Package loadgen drives a VisClean cluster (or a single viscleanweb)
// through full interactive cleaning sessions over HTTP: create →
// iterate → answer every composite question from a client-side
// ground-truth oracle → iterate → … It is the measurement half of the
// cluster work (DESIGN.md §9): hundreds of concurrent oracle-backed
// drivers produce the answer-latency distribution, per-shard session
// placement, rejection and migration counts that cmd/loadgen's report
// holds, and the chaos tests reuse the same drivers to storm a cluster
// while shards are killed.
//
// Drivers answer from the same ground truth the server's datasets were
// generated from — datagen is deterministic in (dataset, scale, seed),
// so the client can rebuild the oracle's knowledge locally and answer
// over the wire exactly like the in-process auto-oracle would.
package loadgen

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"visclean/internal/datagen"
	"visclean/internal/oracle"
)

// SpecJSON is the session spec a driver creates sessions with; its
// JSON form is the POST /api/session body.
type SpecJSON struct {
	ID       string  `json:"id,omitempty"`
	Dataset  string  `json:"dataset,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	K        int     `json:"k,omitempty"`
	Selector string  `json:"selector,omitempty"`
}

// TruthCache builds and memoizes ground truth per (dataset, scale,
// seed) so N drivers sharing a spec pay for one datagen run.
type TruthCache struct {
	mu sync.Mutex
	m  map[string]*oracle.GroundTruth
}

func NewTruthCache() *TruthCache {
	return &TruthCache{m: make(map[string]*oracle.GroundTruth)}
}

// Truth returns the ground truth for a spec, building it on first use.
func (tc *TruthCache) Truth(dataset string, scale float64, seed int64) (*oracle.GroundTruth, error) {
	key := fmt.Sprintf("%s|%g|%d", dataset, scale, seed)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if gt, ok := tc.m[key]; ok {
		return gt, nil
	}
	d, err := datagen.ByName(dataset, datagen.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	tc.m[key] = d.Truth
	return d.Truth, nil
}

// Options parameterizes a load run.
type Options struct {
	// BaseURL is the router (or single shard) the drivers talk to.
	BaseURL string
	// Shards are the individual shard base URLs, scraped after the storm
	// for per-shard session counts; empty means skip that column.
	Shards []string
	// Sessions is the total number of sessions to run.
	Sessions int
	// Concurrency caps simultaneously active sessions (default:
	// Sessions).
	Concurrency int
	// Iterations per session (default 2).
	Iterations int
	// Spec is the per-session spec template; each driver gets Seed +
	// (i % SeedSpread) so a few distinct datasets circulate.
	Spec SpecJSON
	// SeedSpread is how many distinct seeds to spread sessions over
	// (default 4; ground truth is cached per seed).
	SeedSpread int
	// Client is the HTTP client (default: 60s timeout).
	Client *http.Client
	// Logf receives progress lines (default: drop).
	Logf func(format string, args ...any)
}

// Run executes the load: Sessions oracle-backed drivers, at most
// Concurrency in flight, each completing Iterations full iterations
// with every question answered, then scrapes shard placement and
// router metrics into a Report.
func Run(opts Options) (*Report, error) {
	if opts.Sessions <= 0 {
		opts.Sessions = 1
	}
	if opts.Concurrency <= 0 || opts.Concurrency > opts.Sessions {
		opts.Concurrency = opts.Sessions
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 2
	}
	if opts.SeedSpread <= 0 {
		opts.SeedSpread = 4
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	spec := opts.Spec
	if spec.Dataset == "" {
		spec.Dataset = "D1"
	}
	if spec.Scale == 0 {
		spec.Scale = 0.002
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}

	truths := NewTruthCache()
	stats := NewStats()
	start := time.Now()
	sem := make(chan struct{}, opts.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < opts.Sessions; i++ {
		sp := spec
		sp.ID = fmt.Sprintf("lg-%04d", i)
		sp.Seed = spec.Seed + int64(i%opts.SeedSpread)
		gt, err := truths.Truth(sp.Dataset, sp.Scale, sp.Seed)
		if err != nil {
			return nil, err
		}
		d := &Driver{
			Client:   opts.Client,
			Base:     opts.BaseURL,
			Spec:     sp,
			Policy:   NewPolicy(gt, sp.Seed),
			Iters:    opts.Iterations,
			Stats:    stats,
			Tolerant: true,
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := d.Run(); err != nil {
				stats.fail()
				opts.Logf("loadgen: session %s: %v", d.Spec.ID, err)
			} else {
				stats.complete()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	opts.Logf("loadgen: %d sessions done in %v", opts.Sessions, elapsed.Round(time.Millisecond))

	rep := buildReport(opts, stats, elapsed)
	return rep, nil
}
