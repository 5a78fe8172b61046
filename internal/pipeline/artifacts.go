package pipeline

// Session-side wiring of the cross-session artifact cache (DESIGN.md
// §12). Five artifact kinds cover the heavy immutables a session derives
// purely from table content:
//
//	emboot   — blocking candidates, their feature vectors, the distant-
//	           supervision seed labels, the first trained forest and the
//	           post-train probabilities (the dominant NewSession cost).
//	           Keyed by the forest config and blocking keys; its
//	           Workers is excluded because training is worker-invariant.
//	std      — one frozen, approval-free goldenrec.Standardizer per
//	           A-column. Sessions Clone() it instead of re-scanning the
//	           column's distinct values on every model refresh.
//	simjoin  — the Algorithm 1 similarity self-join of one A-column at
//	           one threshold. Sessions share the pairs slice and get a
//	           private memo (CloneShared).
//	knn      — the raw tokenization of the kNN index (knn.Base): every
//	           row's sorted token-id set and the vocabulary. Token sets
//	           exclude yCol, the only column repairs rewrite, so they are
//	           valid at any point in any session's life; each session
//	           binds them to its own table and canonicalizer and
//	           re-tokenizes only rows whose canonical text differs,
//	           replacing those rows' sets and numbering new tokens in a
//	           private extension of the vocabulary.
//	basevis  — one view's vql.Incremental executor registered over the
//	           pristine cleaned relation, the committed view of every
//	           session that has no user input yet. Keyed per view
//	           query, so multi-view sessions hold one slot per panel.
//
// The determinism contract: every artifact is a pure function of the
// fingerprinted table content plus the parameters its kind string
// encodes, and strictly read-only once built. Mutable companions (the
// similarity memo, the token sets a session resets and the vocabulary
// extension that numbers their new tokens) are private per session. A
// session without the shared cache runs the very same builds for
// itself (see acquire), so every artifact has one acquisition path and
// the determinism suite holds cache-on sessions byte-identical to
// cache-off ones.

import (
	"fmt"
	"slices"

	"visclean/internal/artifact"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/knn"
	"visclean/internal/rf"
	"visclean/internal/vql"
)

// Rough per-element heap overheads for Bytes() accounting: a string
// header, a slice header, a forest node, and what an incremental
// executor keeps per registered row (its resolved contribution, its
// rank-index entry and its group's contributor entry; one build of a D1
// Q1 executor grew the heap by 230–250 B per row).
const (
	strHeaderBytes = 16
	sliceHdrBytes  = 24
	forestNodeSize = 48
	execRowBytes   = 240
)

// Fingerprint returns the content hash keying this session's entries in
// the shared artifact cache, or "" when the cache is off. The service
// layer records it in snapshots; restore recomputes it from the rebuilt
// table and re-acquires, so the snapshot field is informational.
func (s *Session) Fingerprint() string { return s.fingerprint }

// acquire returns one artifact of the session. With the shared cache it
// fetches the artifact for the session's fingerprint, building it
// single-flight on a miss, and retains the handle until Close so the
// cache cannot evict it out from under the session; an acquisition
// after Close releases its handle at once and still returns the
// artifact, which is immutable and stays valid. Without the cache it
// runs build for this session alone. The error is build's.
func (s *Session) acquire(kind string, build func() (artifact.Artifact, error)) (artifact.Artifact, error) {
	if s.cfg.Artifacts == nil {
		return build()
	}
	h, err := s.cfg.Artifacts.Acquire(s.fingerprint, kind, build)
	if err != nil {
		return nil, err
	}
	a := h.Artifact()
	s.artMu.Lock()
	closed := s.artClosed
	if !closed {
		s.artHandles = append(s.artHandles, h)
	}
	s.artMu.Unlock()
	if closed {
		h.Release()
	}
	return a, nil
}

// Close releases the session's references into the shared artifact
// cache. Idempotent, and safe to call while an iteration is still
// running: a late acquisition after Close releases its handle
// immediately (see acquire).
func (s *Session) Close() {
	s.artMu.Lock()
	handles := s.artHandles
	s.artHandles = nil
	s.artClosed = true
	s.artMu.Unlock()
	for _, h := range handles {
		h.Release()
	}
}

// ---- emboot ----

// seedLabel is one distant-supervision pseudo-label.
type seedLabel struct {
	pair  em.Pair
	match bool
}

// embootArtifact is the shared EM bootstrap: everything NewSession
// derives before the user's first answer.
type embootArtifact struct {
	candidates []em.Pair
	feats      [][]float64 // aligned with candidates; shared read-only
	labels     []seedLabel
	forest     *rf.Forest // nil when seeding yielded a single class
	probs      []float64  // post-train probabilities, aligned with candidates
}

func (a *embootArtifact) Bytes() int64 {
	b := int64(len(a.candidates))*16 + int64(len(a.probs))*8 + int64(len(a.labels))*17
	for _, f := range a.feats {
		b += sliceHdrBytes + int64(len(f))*8
	}
	if a.forest != nil {
		b += int64(a.forest.NumNodes()) * forestNodeSize
	}
	return b
}

func embootKey(cfg rf.Config, keyColumns []int) string {
	return fmt.Sprintf("emboot:rf=%d,%d,%d,%g,%d:keys=%v",
		cfg.NumTrees, cfg.MaxDepth, cfg.MinLeaf, cfg.FeatureFrac, cfg.Seed, keyColumns)
}

// acquireBootstrap returns the session's bootstrap artifact, shared or
// privately built.
func (s *Session) acquireBootstrap(keyColumns []int) *embootArtifact {
	a, _ := s.acquire(embootKey(s.forestConfig(), keyColumns), func() (artifact.Artifact, error) {
		return s.buildBootstrap(keyColumns), nil
	}) // the build cannot fail, so neither can acquire
	return a.(*embootArtifact)
}

// buildBootstrap runs candidate generation, feature extraction,
// distant-supervision seeding and the first training on a throwaway
// matcher, capturing the immutable results for installBootstrap. The
// feature and scoring passes fan out over the forest's Workers; their
// results do not depend on the worker count. With obs on, each step's
// wall time lands in visclean_session_open_phase_seconds.
func (s *Session) buildBootstrap(keyColumns []int) *embootArtifact {
	ph := startOpenPhases()
	cands := em.Candidates(s.table, em.BlockingConfig{KeyColumns: keyColumns})
	ph.done("blocking")
	m := em.NewMatcher(s.table, s.forestConfig())
	feats := m.FeaturesOf(s.table, cands)
	ph.done("features")
	probs := make([]float64, len(cands))
	m.ProbsOf(cands, feats, probs)
	labels := seedLabels(cands, probs)
	for _, l := range labels {
		m.AddLabel(l.pair, l.match)
	}
	ph.done("seed")
	_ = m.Train(s.table) // single-class training keeps the heuristic (nil forest)
	ph.done("train")
	m.ProbsOf(cands, feats, probs)
	ph.done("probs")
	return &embootArtifact{
		candidates: cands,
		feats:      feats,
		labels:     labels,
		forest:     m.Forest(),
		probs:      probs,
	}
}

// Distant supervision labels at most maxSeedPerClass candidates per
// class, each past an absolute sanity threshold.
const (
	maxSeedPerClass = 30
	seedMatchMin    = 0.88
	seedNonMatchMax = 0.55
)

// seedLabels picks the distant-supervision labels from the candidates'
// heuristic probabilities: the candidates the heuristic ranks as most
// and least similar, gated by the absolute thresholds; no ground truth
// and no user budget is consumed. Rank-based selection matters because
// the heuristic's absolute scale shifts with the schema (a table with
// many near-constant numeric columns floats every pair's score up).
//
// In the candidates' merge-list order (em.MergeBefore), the matches are
// the first maxSeedPerClass with p ≥ seedMatchMin, first to last, and
// the non-matches the last maxSeedPerClass with p ≤ seedNonMatchMax,
// last to first. Two bounded buffers keep them without sorting every
// candidate; candidates are distinct pairs, so the order is a strict
// total order and each buffer holds exactly that end of a full sort. A
// NaN probability meets neither threshold.
func seedLabels(cands []em.Pair, probs []float64) []seedLabel {
	seedAfter := func(a, b em.ScoredPair) bool { return em.MergeBefore(b, a) }
	var pos, neg []em.ScoredPair
	for i, pr := range probs {
		sp := em.ScoredPair{Pair: cands[i], Prob: pr}
		switch {
		case pr >= seedMatchMin:
			pos = insertBounded(pos, sp, maxSeedPerClass, em.MergeBefore)
		case pr <= seedNonMatchMax:
			neg = insertBounded(neg, sp, maxSeedPerClass, seedAfter)
		}
	}
	labels := make([]seedLabel, 0, len(pos)+len(neg))
	for _, sp := range pos {
		labels = append(labels, seedLabel{pair: sp.Pair, match: true})
	}
	for _, sp := range neg {
		labels = append(labels, seedLabel{pair: sp.Pair, match: false})
	}
	return labels
}

// installBootstrap starts the session from its bootstrap artifact, then
// runs the refreshModel tail (synonym classes, clustering, index
// maintenance) as a refresh with no user labels would. It is the only
// way a session's EM model starts. The candidate list and the feature
// vectors stay shared read-only; the session copies the slices it
// writes (feature slots, probabilities).
func (s *Session) installBootstrap(a *embootArtifact) {
	s.candidates = a.candidates
	s.feats = slices.Clone(a.feats)
	s.probs = slices.Clone(a.probs)
	s.merged = make([]bool, len(a.candidates))
	for _, l := range a.labels {
		s.matcher.AddLabel(l.pair, l.match)
	}
	s.matcher.SetForest(a.forest)
	s.dirtyIDs = nil
	s.mergeList = nil // no auto-merging before the first user label
	s.rebuildStandardizers()
	s.clusters = s.buildClusters()
	s.maintainKnnIndex()
}

// ---- std ----

// stdArtifact is one A-column's frozen approval-free standardizer.
type stdArtifact struct{ base *goldenrec.Standardizer }

func (a *stdArtifact) Bytes() int64 { return a.base.Bytes() }

// baseStandardizer returns a fresh approval-free standardizer for column
// c: a Clone of the column's frozen base, acquired on first use, so no
// model refresh re-scans the column's distinct values.
func (s *Session) baseStandardizer(c int) *goldenrec.Standardizer {
	base, ok := s.stdBase[c]
	if !ok {
		a, _ := s.acquire(fmt.Sprintf("std:col=%d", c), func() (artifact.Artifact, error) {
			st := goldenrec.NewStandardizer(s.table, c)
			st.Freeze()
			return &stdArtifact{base: st}, nil
		}) // the build cannot fail, so neither can acquire
		base = a.(*stdArtifact).base
		if s.stdBase == nil {
			s.stdBase = make(map[int]*goldenrec.Standardizer, len(s.aColumns))
		}
		s.stdBase[c] = base
	}
	return base.Clone()
}

// ---- simjoin ----

// simjoinArtifact is one A-column's precomputed similarity self-join.
type simjoinArtifact struct{ ix *goldenrec.SimIndex }

func (a *simjoinArtifact) Bytes() int64 {
	b := int64(sliceHdrBytes)
	for _, p := range a.ix.Pairs() {
		b += int64(len(p.V1)+len(p.V2)) + 2*strHeaderBytes + 16
	}
	return b
}

// simIndexFor returns a per-session similarity join for column col over
// the acquired precomputed pairs. The clone carries a private memo; the
// join result itself is a pure function of the column's distinct
// values, which repairs never touch (only yCol is ever rewritten).
func (s *Session) simIndexFor(col int, threshold float64) *goldenrec.SimIndex {
	a, _ := s.acquire(fmt.Sprintf("simjoin:col=%d:th=%g", col, threshold), func() (artifact.Artifact, error) {
		return &simjoinArtifact{ix: goldenrec.NewSimIndex(s.table, col, threshold)}, nil
	}) // the build cannot fail, so neither can acquire
	return a.(*simjoinArtifact).ix.CloneShared()
}

// ---- knn ----

// knnFromArtifact installs the session's kNN index bound to the
// acquired raw tokenization (a *knn.Base: every row's token-id set and
// the vocabulary, shared read-only), re-tokenizing exactly the rows
// whose canonical text differs from the raw rendering — none in a fresh
// session; after a snapshot restore, the rows touched by replayed
// approvals.
func (s *Session) knnFromArtifact() {
	a, _ := s.acquire(s.knnKind(), func() (artifact.Artifact, error) {
		return knn.NewBase(s.table, s.yCol), nil
	}) // the build cannot fail, so neither can acquire
	s.knnIndex = a.(*knn.Base).Bind(s.table, s.knnCanon)
	s.snapshotCanon()
	var rows []int
	for _, c := range s.aColumns {
		for v, canon := range s.canonSnap[c] {
			if canon != v {
				rows = append(rows, s.valueRows[c][v]...)
			}
		}
	}
	if len(rows) > 0 {
		slices.Sort(rows)
		s.knnIndex.ResetRows(slices.Compact(rows))
	}
}

// knnKind is the knn artifact's kind string.
func (s *Session) knnKind() string { return fmt.Sprintf("knn:skip=%d", s.yCol) }

// ---- basevis ----

// basevisArtifact is one view's executor registered over the pristine
// cleaned relation: every live tuple its own cluster and every cell as
// loaded, since approval-free standardizers rewrite nothing. That
// relation is a pure function of the table, so sessions over the same
// content share the executor, and their pricers evaluate through it
// concurrently.
type basevisArtifact struct {
	exec *vql.Incremental
	rows int // rows registered
}

func (a *basevisArtifact) Bytes() int64 { return int64(a.rows) * execRowBytes }

// pristine reports whether the session still has no user input of any
// kind — the state in which its committed relation is the pristine one.
func (s *Session) pristine() bool {
	return s.iter == 0 && len(s.committed) == 0 && len(s.current) == 0 &&
		!s.userLabeled && len(s.confirmed) == 0 && len(s.split) == 0 &&
		len(s.aApproved) == 0 && len(s.aRejected) == 0 &&
		len(s.answeredM) == 0 && len(s.answeredO) == 0
}

// pristineExec returns view q's executor over the pristine relation;
// relViews asks for it only while the session is pristine. Each view
// has its own cache slot, keyed by the view's query string on top of
// the table fingerprint, so concurrent sessions over the same data
// share per-view executors independently of which other views they
// carry. A build registers rows(), the session's own committed rows,
// which the caller builds at most once for all its views.
func (s *Session) pristineExec(q *vql.Query, rows func() []vql.IncRow) (*vql.Incremental, error) {
	a, err := s.acquire("basevis:q="+q.String(), func() (artifact.Artifact, error) {
		r := rows()
		exec, err := q.NewIncremental(s.table.Schema(), r)
		if err != nil {
			return nil, err
		}
		return &basevisArtifact{exec: exec, rows: len(r)}, nil
	})
	if err != nil {
		return nil, err
	}
	return a.(*basevisArtifact).exec, nil
}
