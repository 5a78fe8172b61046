package pipeline

// Determinism of the cross-session artifact cache (DESIGN.md §12): a
// session acquiring its setup structures from the shared cache — cold,
// warm, under concurrent churn, under eviction pressure, or restored
// from a snapshot — must be byte-identical to a cache-off session.
// scripts/check.sh runs this file under -race alongside the other
// determinism suites, which is what validates the sharing itself: any
// write to a cached structure from session code is a data race once two
// sessions hold it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"visclean/internal/artifact"
	"visclean/internal/datagen"
	"visclean/internal/oracle"
	"visclean/internal/rf"
	"visclean/internal/vql"
)

// newArtSession builds the standard determinism-suite session with an
// artifact cache wired in (nil means cache off).
func newArtSession(t testing.TB, cache *artifact.Cache, seed int64) (*Session, *oracle.Oracle) {
	t.Helper()
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: seed})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	truthVis, err := q.Execute(d.Truth.Clean)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{
		Seed:      seed,
		TruthVis:  truthVis,
		Artifacts: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, oracle.New(d.Truth, seed)
}

// traceSession is runDetSession's iteration loop on an existing session.
func traceSession(t testing.TB, s *Session, user User) detTrace {
	t.Helper()
	var tr detTrace
	for i := 0; i < 5; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		tr.CQGs = append(tr.CQGs, rep.CQGMembers)
		tr.Benefits = append(tr.Benefits, rep.EstimatedBenefit)
		tr.Evals = append(tr.Evals, rep.BenefitEvals)
		tr.Questions = append(tr.Questions, rep.Questions())
	}
	h, err := json.Marshal(s.History())
	if err != nil {
		t.Fatal(err)
	}
	tr.History = h
	if v, err := s.CurrentVis(); err == nil {
		tr.FinalVis = fmt.Sprintf("%+v", v)
	}
	return tr
}

// runArtSession runs a full traced session against cache (nil = off).
func runArtSession(t testing.TB, cache *artifact.Cache, seed int64) detTrace {
	t.Helper()
	s, user := newArtSession(t, cache, seed)
	defer s.Close()
	return traceSession(t, s, user)
}

// TestDeterminismArtifactCacheColdWarm holds a cache-off session, the
// session that populates a cold cache, and a session served entirely
// from the warm cache byte-identical.
func TestDeterminismArtifactCacheColdWarm(t *testing.T) {
	off := runArtSession(t, nil, 7)
	cache := artifact.New(0)
	cold := runArtSession(t, cache, 7)
	if cache.Stats().Entries == 0 {
		t.Fatal("cold session cached no artifacts; the cache is not wired in")
	}
	warm := runArtSession(t, cache, 7)
	assertTracesEqual(t, "cache off vs cold", off, cold)
	assertTracesEqual(t, "cache off vs warm", off, warm)
}

// TestDeterminismArtifactCacheConcurrent churns N concurrent sessions
// over the same fingerprint through one cache: every session must match
// the cache-off baseline (and under -race, every shared read must be
// clean).
func TestDeterminismArtifactCacheConcurrent(t *testing.T) {
	baseline := runArtSession(t, nil, 7)
	cache := artifact.New(0)
	const n = 6
	traces := make([]detTrace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = runArtSession(t, cache, 7)
		}(i)
	}
	wg.Wait()
	for i, tr := range traces {
		assertTracesEqual(t, fmt.Sprintf("concurrent session %d vs cache-off", i), baseline, tr)
	}
}

// TestDeterminismArtifactCacheEvictionPressure runs sessions against a
// one-byte budget: every artifact is over budget the moment its last
// handle releases, so sessions constantly rebuild — but an artifact a
// session still references must survive (handles pin entries), so the
// outcome stays byte-identical.
func TestDeterminismArtifactCacheEvictionPressure(t *testing.T) {
	baseline := runArtSession(t, nil, 7)
	cache := artifact.New(1)
	traces := make([]detTrace, 3)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = runArtSession(t, cache, 7)
		}(i)
	}
	wg.Wait()
	for i, tr := range traces {
		assertTracesEqual(t, fmt.Sprintf("evicted session %d vs cache-off", i), baseline, tr)
	}
	if st := cache.Stats(); st.Bytes > 1 {
		t.Fatalf("cache retains %d bytes after all sessions closed, budget 1", st.Bytes)
	}
}

// TestArtifactAcquireAfterClose closes a shared-cache session before its
// first iteration, so its basevis, knn and simjoin artifacts are all
// acquired after Close. Each such acquisition must release its handle
// at once and still serve the artifact: the session stays byte-identical
// to a cache-off one, and the cache is left holding no handle.
func TestArtifactAcquireAfterClose(t *testing.T) {
	baseline := runArtSession(t, nil, 7)
	cache := artifact.New(0)
	s, user := newArtSession(t, cache, 7)
	opened := cache.Stats().Entries
	s.Close()
	tr := traceSession(t, s, user)
	assertTracesEqual(t, "acquired after Close vs cache-off", baseline, tr)
	st := cache.Stats()
	if st.Entries-opened < 3 {
		t.Fatalf("%d artifacts acquired after Close, want at least basevis, knn and simjoin", st.Entries-opened)
	}
	if st.Idle != st.Entries {
		t.Fatalf("%d of %d cache entries still held after Close", st.Entries-st.Idle, st.Entries)
	}
}

// TestDeterminismArtifactCacheReplay restores sessions from an answer
// log with and without a warm cache. Replay applies approvals before
// the kNN index is first built, so the post-restore iterations exercise
// the artifact path that adopts the shared raw token sets and
// re-tokenizes exactly the rows whose canonical text moved.
func TestDeterminismArtifactCacheReplay(t *testing.T) {
	live, orc := newArtSession(t, nil, 5)
	defer live.Close()
	for i := 0; i < 3; i++ {
		rep, err := live.RunIteration(orc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
	}
	h := live.History()

	cache := artifact.New(0)
	warmup, _ := newArtSession(t, cache, 5)
	warmup.Close()

	restore := func(c *artifact.Cache) detTrace {
		s, _ := newArtSession(t, c, 5)
		defer s.Close()
		if err := s.Replay(h); err != nil {
			t.Fatal(err)
		}
		// A fresh same-seed oracle for each restored session: the two
		// continuations must consume identical answer streams.
		d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 5})
		return traceSession(t, s, oracle.New(d.Truth, 99))
	}
	off := restore(nil)
	warm := restore(cache)
	assertTracesEqual(t, "restored cache-off vs warm cache", off, warm)
}

// TestConfigSeedReachesForest opens three sessions over one table and
// one cache. A second Seed-1 session adds no entry and has the first's
// matching probabilities. A Seed-2 session trains its own bootstrap
// forest: it adds exactly one entry, its emboot, and its probabilities
// differ.
func TestConfigSeedReachesForest(t *testing.T) {
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 1})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	cache := artifact.New(0)
	open := func(seed int64) *Session {
		s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: seed, Artifacts: cache})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	first := open(1)
	n := cache.Stats().Entries
	if again := open(1); cache.Stats().Entries != n || !slices.Equal(again.probs, first.probs) {
		t.Fatalf("a second Seed-1 session added %d entries; same probabilities: %v",
			cache.Stats().Entries-n, slices.Equal(again.probs, first.probs))
	}
	other := open(2)
	if added := cache.Stats().Entries - n; added != 1 {
		t.Fatalf("a Seed-2 session added %d entries, want its emboot alone", added)
	}
	forest := rf.DefaultConfig()
	forest.Seed = 3 // Seed + 1
	h, err := cache.Acquire(other.fingerprint, embootKey(forest, d.KeyColumns), func() (artifact.Artifact, error) {
		return nil, errors.New("built")
	})
	if err != nil {
		t.Fatalf("the Seed-2 emboot is not the added entry: %v", err)
	}
	h.Release()
	if slices.Equal(other.probs, first.probs) {
		t.Fatal("Seed-1 and Seed-2 sessions over one table have the same probabilities")
	}
}
