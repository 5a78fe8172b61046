package pipeline

// Session-side wiring of the cross-session artifact cache (DESIGN.md
// §12). Five artifact kinds cover the heavy immutables a session derives
// purely from table content:
//
//	emboot   — blocking candidates, their feature vectors, the distant-
//	           supervision seed labels, the first trained forest and the
//	           post-train probabilities (the dominant NewSession cost).
//	           Keyed by the RF config and blocking keys; RF.Workers is
//	           excluded because training is worker-invariant.
//	std      — one frozen, approval-free goldenrec.Standardizer per
//	           A-column. Sessions Clone() it instead of re-scanning the
//	           column's distinct values on every model refresh.
//	simjoin  — the Algorithm 1 similarity self-join of one A-column at
//	           one threshold. Sessions share the pairs slice and get a
//	           private memo (CloneShared).
//	knn      — the raw per-row token sets of the kNN index. Token sets
//	           exclude yCol, the only column repairs rewrite, so they are
//	           valid at any point in any session's life; each session
//	           re-binds them to its own table and canonicalizer and
//	           re-tokenizes only rows whose canonical text differs.
//	basevis  — one view's pristine initial chart and its
//	           distance.Baseline prefix sums, served while the session
//	           has no answers. Keyed per view query, so multi-view
//	           sessions hold one slot per panel.
//
// The determinism contract: every artifact is a pure function of the
// fingerprinted table content plus the parameters its kind string
// encodes, and strictly read-only once cached. Mutable companions (the
// similarity memo, the token maps a session resets) are private per
// session. Every acquisition has a private-build fallback, so a build
// error, a cold cache or Config.NoArtifactCache all degrade to exactly
// the pre-cache behaviour — the determinism suite holds cache-on
// sessions byte-identical to cache-off ones.

import (
	"fmt"
	"reflect"
	"sort"

	"visclean/internal/artifact"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/knn"
	"visclean/internal/rf"
	"visclean/internal/vis"
)

// Rough per-element heap overheads for Bytes() accounting: a map entry's
// bucket share, a string header, a slice header, a forest node.
const (
	mapEntryBytes  = 48
	strHeaderBytes = 16
	sliceHdrBytes  = 24
	forestNodeSize = 48
)

// artifactsOn reports whether this session reads and populates the
// shared cache.
func (s *Session) artifactsOn() bool { return s.fingerprint != "" }

// Fingerprint returns the content hash keying this session's entries in
// the shared artifact cache, or "" when the cache is off. The service
// layer records it in snapshots; restore recomputes it from the rebuilt
// table and re-acquires, so the snapshot field is informational.
func (s *Session) Fingerprint() string { return s.fingerprint }

// acquire fetches one artifact for the session's fingerprint, retaining
// the handle until Close so the cache cannot evict it out from under the
// session. Returns nil — private-build fallback — when the cache is off
// or the build failed.
func (s *Session) acquire(kind string, build func() (artifact.Artifact, error)) artifact.Artifact {
	if !s.artifactsOn() {
		return nil
	}
	h, err := s.cfg.Artifacts.Acquire(s.fingerprint, kind, build)
	if err != nil {
		return nil
	}
	s.artMu.Lock()
	if s.artClosed {
		s.artMu.Unlock()
		h.Release()
		return nil
	}
	s.artHandles = append(s.artHandles, h)
	s.artMu.Unlock()
	return h.Artifact()
}

// Close releases the session's references into the shared artifact
// cache. Idempotent, and safe to call while an iteration is still
// running: a late acquisition after Close releases its handle
// immediately and the caller falls back to a private build.
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

// acquireBootstrap returns the shared bootstrap artifact, building it
// single-flight on a cold cache; nil means the cache is off and the
// caller must run the private bootstrapMatcher/refreshModel path.
func (s *Session) acquireBootstrap(keyColumns []int) *embootArtifact {
	a := s.acquire(embootKey(s.cfg.RF, keyColumns), func() (artifact.Artifact, error) {
		return s.buildBootstrap(keyColumns), nil
	})
	if a == nil {
		return nil
	}
	return a.(*embootArtifact)
}

// buildBootstrap replays the candidate generation, feature extraction,
// distant-supervision seeding and first training of the private cold
// path (bootstrapMatcher + refreshModel's train half) on a throwaway
// matcher, capturing the immutable results. The arithmetic must stay in
// lockstep with bootstrapMatcher — the determinism suite compares the
// two paths byte for byte.
func (s *Session) buildBootstrap(keyColumns []int) *embootArtifact {
	const maxSeedPerClass = 30
	cands := em.Candidates(s.table, em.BlockingConfig{KeyColumns: keyColumns})
	m := em.NewMatcher(s.table, s.cfg.RF)
	feats := make([][]float64, len(cands))
	type scored struct {
		i  int
		pr float64
	}
	all := make([]scored, len(cands))
	for i, p := range cands {
		f := m.Features(s.table, p)
		feats[i] = f
		all[i] = scored{i: i, pr: m.ProbWithFeatures(p, f)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pr != all[j].pr {
			return all[i].pr > all[j].pr
		}
		pi, pj := cands[all[i].i], cands[all[j].i]
		if pi.A != pj.A {
			return pi.A < pj.A
		}
		return pi.B < pj.B
	})
	var labels []seedLabel
	pos := 0
	for _, sc := range all {
		if pos >= maxSeedPerClass || sc.pr < 0.88 {
			break
		}
		m.AddLabel(cands[sc.i], true)
		labels = append(labels, seedLabel{pair: cands[sc.i], match: true})
		pos++
	}
	neg := 0
	for i := len(all) - 1; i >= 0; i-- {
		sc := all[i]
		if neg >= maxSeedPerClass || sc.pr > 0.55 {
			break
		}
		m.AddLabel(cands[sc.i], false)
		labels = append(labels, seedLabel{pair: cands[sc.i], match: false})
		neg++
	}
	_ = m.Train(s.table) // single-class training keeps the heuristic (nil forest)
	probs := make([]float64, len(cands))
	for i, p := range cands {
		probs[i] = m.ProbWithFeatures(p, feats[i])
	}
	return &embootArtifact{
		candidates: cands,
		feats:      feats,
		labels:     labels,
		forest:     m.Forest(),
		probs:      probs,
	}
}

// installBootstrap warm-starts the session from the shared bootstrap,
// then runs the refreshModel tail (synonym classes, clustering, index
// maintenance) exactly as the cold path's first refresh would with no
// user labels. Candidate, feature and probability storage is shared
// read-only: later refreshes replace map entries wholesale, never
// mutating the shared slices.
func (s *Session) installBootstrap(a *embootArtifact) {
	s.candidates = a.candidates
	s.featCache = make(map[em.Pair][]float64, len(a.candidates))
	s.probCache = make(map[em.Pair]float64, len(a.candidates))
	for i, p := range a.candidates {
		s.featCache[p] = a.feats[i]
		s.probCache[p] = a.probs[i]
	}
	for _, l := range a.labels {
		s.matcher.AddLabel(l.pair, l.match)
	}
	s.matcher.SetForest(a.forest)
	s.dirtyIDs = nil
	s.mergeList = nil // no auto-merging before the first user label
	s.rebuildStandardizers()
	s.clusters = s.buildClusters(nil, nil)
	s.maintainKnnIndex()
}

// ---- std ----

// stdArtifact is one A-column's frozen approval-free standardizer.
type stdArtifact struct{ base *goldenrec.Standardizer }

func (a *stdArtifact) Bytes() int64 { return a.base.Bytes() }

// baseStandardizer returns a fresh approval-free standardizer for column
// c: a Clone of the shared frozen base when the cache is on (skipping
// the per-refresh distinct-values scan), a private build otherwise.
func (s *Session) baseStandardizer(c int) *goldenrec.Standardizer {
	if st, ok := s.stdBase[c]; ok {
		return st.Clone()
	}
	a := s.acquire(fmt.Sprintf("std:col=%d", c), func() (artifact.Artifact, error) {
		st := goldenrec.NewStandardizer(s.table, c)
		st.Freeze()
		return &stdArtifact{base: st}, nil
	})
	if a == nil {
		return goldenrec.NewStandardizer(s.table, c)
	}
	base := a.(*stdArtifact).base
	if s.stdBase == nil {
		s.stdBase = make(map[int]*goldenrec.Standardizer, len(s.aColumns))
	}
	s.stdBase[c] = base
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

// simIndexFor returns a per-session similarity join for column col,
// sharing the precomputed pairs through the cache when possible. The
// clone carries a private memo; the join result itself is a pure
// function of the column's distinct values, which repairs never touch
// (only yCol is ever rewritten).
func (s *Session) simIndexFor(col int, threshold float64) *goldenrec.SimIndex {
	a := s.acquire(fmt.Sprintf("simjoin:col=%d:th=%g", col, threshold), func() (artifact.Artifact, error) {
		return &simjoinArtifact{ix: goldenrec.NewSimIndex(s.table, col, threshold)}, nil
	})
	if a == nil {
		return goldenrec.NewSimIndex(s.table, col, threshold)
	}
	return a.(*simjoinArtifact).ix.CloneShared()
}

// ---- knn ----

// knnArtifact is the raw (canon-free) token set of every row, skipCol
// excluded. The maps are shared live across sessions: safe because
// ResetRows replaces a row's map wholesale, never mutating one in place.
type knnArtifact struct {
	tokens []map[string]struct{}
	bytes  int64
}

func newKnnArtifact(ix *knn.Index) *knnArtifact {
	tokens := ix.TokenSets()
	b := int64(sliceHdrBytes)
	for _, set := range tokens {
		b += sliceHdrBytes
		for tok := range set {
			b += int64(len(tok)) + mapEntryBytes
		}
	}
	return &knnArtifact{tokens: tokens, bytes: b}
}

func (a *knnArtifact) Bytes() int64 { return a.bytes }

// knnFromArtifact installs the session's kNN index from the shared raw
// token sets, re-tokenizing exactly the rows whose canonical text
// differs from the raw rendering — none in a fresh session; after a
// snapshot restore, the rows touched by replayed approvals. Returns
// false (private-build fallback) when the cache is off.
func (s *Session) knnFromArtifact() bool {
	a := s.acquire(fmt.Sprintf("knn:skip=%d", s.yCol), func() (artifact.Artifact, error) {
		return newKnnArtifact(knn.NewIndex(s.table, s.yCol)), nil
	})
	if a == nil {
		return false
	}
	s.knnIndex = knn.NewIndexFromTokens(s.table, s.yCol, s.knnCanon, a.(*knnArtifact).tokens)
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
		sort.Ints(rows)
		s.knnIndex.ResetRows(dedupSortedInts(rows))
	}
	return true
}

// ---- basevis ----

// basevisArtifact is the pristine initial chart and its precomputed
// distance baseline (built against distance.Default).
type basevisArtifact struct {
	vis      *vis.Data
	baseline *distance.Baseline
}

func (a *basevisArtifact) Bytes() int64 {
	b := int64(sliceHdrBytes)
	for _, p := range a.vis.Points {
		b += int64(len(p.Label)) + strHeaderBytes + 24
	}
	return 3 * b // the baseline's prefix sums and label maps mirror the chart
}

// pristine reports whether the session still has no user input of any
// kind — the state in which its current chart equals the shared
// pristine chart.
func (s *Session) pristine() bool {
	return s.iter == 0 && len(s.committed) == 0 && len(s.current) == 0 &&
		!s.userLabeled && len(s.confirmed) == 0 && len(s.split) == 0 &&
		len(s.aApproved) == 0 && len(s.aRejected) == 0 &&
		len(s.answeredM) == 0 && len(s.answeredO) == 0
}

// pristineVisView serves view v's shared initial chart while the
// session is pristine; nil sends the caller down the private build path.
// Each view has its own cache slot, keyed by the view's query string on
// top of the table fingerprint, so concurrent sessions over the same
// data share per-view charts and baselines independently of which other
// views they carry.
func (s *Session) pristineVisView(v int) *vis.Data {
	if !s.pristine() {
		return nil
	}
	if s.basevis[v] == nil {
		q := s.queries[v]
		a := s.acquire("basevis:q="+q.String(), func() (artifact.Artifact, error) {
			d, err := q.Execute(s.relTable())
			if err != nil {
				return nil, err
			}
			return &basevisArtifact{vis: d, baseline: distance.NewBaseline(distance.Default, d)}, nil
		})
		if a == nil {
			return nil
		}
		s.basevis[v] = a.(*basevisArtifact)
	}
	return s.basevis[v].vis
}

// baselineFor returns the distance baseline of one iteration's base
// chart for view v, reusing the view's shared pristine baseline when
// base is that view's shared pristine chart and the session distance is
// the default the artifact was built with.
func (s *Session) baselineFor(v int, base *vis.Data) *distance.Baseline {
	if bv := s.basevis[v]; bv != nil && base == bv.vis && distIsDefault(s.cfg.Dist) {
		return bv.baseline
	}
	return distance.NewBaseline(s.cfg.Dist, base)
}

func distIsDefault(d distance.Func) bool {
	return reflect.ValueOf(d).Pointer() == reflect.ValueOf(distance.Func(distance.Default)).Pointer()
}
