// Package pipeline is VisClean's orchestrator, implementing the framework
// of §III (Fig 6): initialize the error detectors, build the ERG, price
// it with the benefit model, select the most beneficial CQG, put it to
// the user, apply the answers to the data and the cleaning models, and
// refresh the visualization — iterating until the interaction budget is
// spent.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/impute"
	"visclean/internal/knn"
	"visclean/internal/rf"
	"visclean/internal/transform"
	"visclean/internal/vis"
	"visclean/internal/vql"
)

// User answers cleaning questions. *oracle.Oracle implements it; the
// interactive CLI provides a terminal implementation.
type User interface {
	AnswerT(a, b dataset.TupleID) (match, answered bool)
	AnswerA(column, v1, v2 string) (same, answered bool)
	AnswerM(column string, id dataset.TupleID) (value float64, answered bool)
	AnswerO(column string, id dataset.TupleID, current float64) (isOutlier bool, value float64, answered bool)
}

// SelectorKind names a CQG selection strategy (§VII's algorithm set).
type SelectorKind int

const (
	SelectGSS SelectorKind = iota
	SelectGSSPlus
	SelectBB
	SelectAlphaBB
	SelectRandom
	// SelectSingle is the single-questions baseline: no CQG; the top m
	// single questions are asked in isolation, m/4 from each of
	// Q_T/Q_A/Q_M/Q_O.
	SelectSingle
)

// String names the selector the way flags and reports spell it.
func (s SelectorKind) String() string {
	switch s {
	case SelectGSS:
		return "GSS"
	case SelectGSSPlus:
		return "GSS+"
	case SelectBB:
		return "B&B"
	case SelectAlphaBB:
		return "α-B&B"
	case SelectRandom:
		return "Random"
	case SelectSingle:
		return "Single"
	default:
		return fmt.Sprintf("SelectorKind(%d)", int(s))
	}
}

// Config parameterizes a cleaning session. Zero values select the
// paper's defaults where one exists.
type Config struct {
	// Queries registers additional concurrent views beyond the primary
	// query passed to NewSession: the session then serves N dashboard
	// panels over the same base data, and every question's benefit is
	// the weighted sum of its per-view distance deltas, so one answer
	// improves every panel at once. View 0 is always the primary query;
	// an empty slice is the historical single-view session. Every view
	// must validate against the schema and share the primary query's
	// measure (Y) column — M/O detection and repair write exactly one
	// column.
	Queries []*vql.Query
	// ViewWeights sets the per-view aggregation weights in registration
	// order (index 0 = the primary query). Missing or non-positive
	// entries default to 1.
	ViewWeights []float64

	// K is the CQG size (paper default 10).
	K int
	// Selector picks the CQG selection algorithm (default GSS).
	Selector SelectorKind
	// Alpha is the approximation ratio for SelectAlphaBB (default 5).
	Alpha float64
	// BBMaxExpansions bounds B&B search work per iteration (default 2e5).
	BBMaxExpansions int

	// Dist is the visualization distance. The default is
	// distance.Default: label-aligned EMD (positional for binned axes,
	// total variation for categorical ones). distance.EMD is the
	// paper's literal Eq. (1)–(4) — see DESIGN.md for why it is not the
	// default.
	Dist distance.Func

	// RF configures the entity-matching forest.
	RF rf.Config
	// ClusterThreshold is the auto-merge probability (default 0.5).
	ClusterThreshold float64
	// SimJoinThreshold is Algorithm 1's λ (default 0.4).
	SimJoinThreshold float64
	// ImputeK is the kNN neighbourhood (default 5, §IV).
	ImputeK int

	// Question caps bound per-iteration ERG size (and benefit-model
	// work). Defaults: 40 T, 30 A, 15 M, 15 O.
	MaxT, MaxA, MaxM, MaxO int

	// Seed drives every stochastic component.
	Seed int64

	// Workers bounds the fan-out of the parallel hot paths (benefit
	// annotation, forest training): < 1 selects GOMAXPROCS, 1 runs
	// strictly sequentially. Every worker count produces bit-identical
	// sessions — see DESIGN.md "Concurrency and determinism".
	Workers int

	// Ablation switches (see DESIGN.md "Design deviations" and the
	// BenchmarkAblation_* benches): disable individual stabilizing
	// mechanisms to measure their contribution.
	//
	// NoGeneralization turns off transformation-rule learning: only
	// explicitly approved value pairs standardize.
	NoGeneralization bool
	// NoHysteresis rebuilds the auto-merge set from the raw threshold
	// each iteration instead of the Schmitt-trigger rule.
	NoHysteresis bool
	// NoIncremental disables incremental delta pricing: every hypothesis
	// is priced through the full view-rebuild path. The two paths are
	// bit-identical (enforced by the equivalence suite), so this switch
	// only trades speed — it exists for benchmarking the delta engine's
	// contribution and for bisecting any future equivalence regression.
	NoIncremental bool
	// NoIncrementalDetect disables incremental detection (DESIGN.md
	// §10): every iteration re-runs the full §IV detectors instead of
	// maintaining similarity-join postings, neighbour lists and ERG scan
	// indexes across iterations. Same contract as NoIncremental — the
	// two detect paths are bit-identical (enforced by the
	// detect-equivalence suite), so the switch only trades speed.
	NoIncrementalDetect bool
	// NoArtifactCache disables the cross-session shared artifact cache
	// for this session even when Artifacts is set: every index,
	// standardizer and forest is built privately, exactly as before the
	// cache existed. Same contract as the other ablation switches — the
	// cached and private paths are bit-identical (enforced by the
	// determinism suite), so this only trades setup speed.
	NoArtifactCache bool

	// Artifacts, when set (and NoArtifactCache unset), is the shared
	// cross-session artifact cache (internal/artifact, DESIGN.md §12).
	// Session setup acquires the heavy immutables — match candidates,
	// feature vectors, the first trained forest, token indexes, frozen
	// standardizers, similarity joins, the pristine chart — from it
	// instead of building them privately.
	Artifacts *artifact.Cache

	// TruthVis, when set, lets reports include the distance to the
	// ground-truth visualization (the experiments' EMD(Q(D), Q(D_g))).
	TruthVis *vis.Data
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.K == 0 {
		out.K = 10
	}
	if out.Alpha == 0 {
		out.Alpha = 5
	}
	if out.BBMaxExpansions == 0 {
		out.BBMaxExpansions = 200000
	}
	if out.Dist == nil {
		out.Dist = distance.Default
	}
	if out.RF.NumTrees == 0 {
		seed := out.RF.Seed
		out.RF = rf.DefaultConfig()
		out.RF.Seed = seed
	}
	// Zero-valued RF hyperparameters inherit the defaults even when the
	// caller customized others (rf.Train rejects zero depth/leaf).
	def := rf.DefaultConfig()
	if out.RF.MaxDepth == 0 {
		out.RF.MaxDepth = def.MaxDepth
	}
	if out.RF.MinLeaf == 0 {
		out.RF.MinLeaf = def.MinLeaf
	}
	if out.RF.FeatureFrac == 0 {
		out.RF.FeatureFrac = def.FeatureFrac
	}
	// The RF seed derives from Config.Seed whenever it is unset —
	// including when the caller customized other RF knobs. Gating this
	// on the whole RF config being defaulted (as an earlier version did)
	// silently trained identical forests for differently-seeded
	// sessions as soon as a caller touched RF.NumTrees.
	if out.RF.Seed == 0 {
		out.RF.Seed = c.Seed + 1
	}
	if out.RF.Workers == 0 {
		out.RF.Workers = out.Workers
	}
	if out.ClusterThreshold == 0 {
		out.ClusterThreshold = 0.5
	}
	if out.SimJoinThreshold == 0 {
		out.SimJoinThreshold = 0.4
	}
	if out.ImputeK == 0 {
		out.ImputeK = impute.DefaultK
	}
	if out.MaxT == 0 {
		out.MaxT = 40
	}
	if out.MaxA == 0 {
		out.MaxA = 30
	}
	if out.MaxM == 0 {
		out.MaxM = 15
	}
	if out.MaxO == 0 {
		out.MaxO = 15
	}
	return out
}

// Session is one interactive cleaning run over one table and one query.
type Session struct {
	cfg   Config
	table *dataset.Table

	// queries lists every registered view's query in registration
	// order; queries[0] is the primary query. viewWeights aligns with it.
	// Views added mid-session (AddView) append here and log an
	// AnswerKindV entry so replay restores them at the same point.
	queries     []*vql.Query
	viewWeights []float64

	xCol int // x-axis column index
	yCol int // y-axis (measure) column index

	// aColumns are the categorical columns eligible for A-questions: the
	// X axis if categorical, plus categorical WHERE columns (the paper's
	// Q7 cleans Venue synonyms inside the predicate).
	aColumns []int

	matcher    *em.Matcher
	candidates []em.Pair
	probCache  map[em.Pair]float64
	// featCache holds per-pair feature vectors; entries touching a tuple
	// whose cells changed (dirtyIDs) are recomputed at the next refresh.
	featCache map[em.Pair][]float64
	dirtyIDs  map[dataset.TupleID]struct{}
	// mergeList is the threshold-filtered, probability-sorted candidate
	// list, shared by every clustering rebuild within an iteration.
	mergeList []em.ScoredPair
	// prevMerged is the last iteration's auto-merge set, input to the
	// hysteresis rule (see hysteresisMergeList).
	prevMerged map[em.Pair]struct{}
	confirmed  []em.Pair
	split      []em.Pair
	// userLabeled is set once the user answers a first T-question. Until
	// then the model (trained only on bootstrap pseudo-labels) is used
	// for probabilities and active learning but not for auto-merging, so
	// the initial visualization is the raw dirty chart — the paper's
	// Fig 10(a) starting point.
	userLabeled bool

	// std holds the current per-column synonym classes. It is rebuilt
	// from aApproved/aRejected on every model refresh: approvals union
	// value classes unless a rejection (cannot-link) contradicts the
	// merge — this is what lets later correct answers cut an earlier
	// wrong merge (Exp-3's wrong-label tolerance).
	std       map[string]*goldenrec.Standardizer
	aApproved []aKey
	aRejected []aKey

	answeredA map[aKey]struct{}
	answeredM map[dataset.TupleID]struct{}
	answeredO map[dataset.TupleID]struct{}

	clusters *em.Clusters
	iter     int

	// rel is the committed cleaned relation over clusters, std and the
	// working table (see committed.go); nil once any of them changes.
	rel *committedRel

	// traceLabel tags this session's iteration traces in the shared
	// obs tracer (the service layer sets it to the public session id).
	// Purely observational — it never influences the computation.
	traceLabel string

	// knnIndex is the lazily-built shared neighbour index over the
	// working table (see internal/knn). Its token sets exclude yCol —
	// the only column cleaning rewrites — and tokenize A-column cells
	// through the session's standardizers, so approved synonyms share
	// tokens. canonSnap/valueRows track, per A-column, each distinct
	// value's canonical form as of the last index maintenance and the
	// rows carrying it: after a model refresh changes some canonical
	// forms, exactly the affected rows are re-tokenized (see
	// maintainKnnIndex).
	knnIndex  *knn.Index
	canonSnap map[int]map[string]string
	valueRows map[int]map[string][]int

	// detect is the incrementally maintained detection state (see
	// detectdelta.go); nil until the first detect, or always nil under
	// Config.NoIncrementalDetect. lastDetect is the most recent detect
	// phase's accounting, copied into the iteration Report.
	detect     *detectDelta
	lastDetect detectStats

	// committed is the answer log, one group per completed iteration;
	// current accumulates the in-flight iteration's applied answers.
	// Together they form the session's History — the recoverable core
	// that Snapshot/Replay (see history.go) serializes.
	committed [][]Answer
	current   []Answer

	// fingerprint keys this session's entries in the shared artifact
	// cache ("" when the cache is off). artMu guards the retained handle
	// list: Close may race with a still-running iteration's lazy
	// acquisitions (see artifacts.go). stdBase caches the per-column
	// shared standardizer bases; basevis the per-view pristine charts,
	// aligned with queries.
	fingerprint string
	artMu       sync.Mutex
	artClosed   bool
	artHandles  []*artifact.Handle
	stdBase     map[int]*goldenrec.Standardizer
	basevis     []*basevisArtifact
}

type aKey struct {
	col, v1, v2 string
}

func makeAKey(col, v1, v2 string) aKey {
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	return aKey{col: col, v1: v1, v2: v2}
}

// NewSession initializes VisClean over a dirty table (framework steps
// 1–2): it validates the query, generates EM candidates via blocking,
// bootstraps the matching model with distant-supervision pseudo-labels,
// and builds the initial clustering. keyColumns are the blocking keys.
func NewSession(table *dataset.Table, query *vql.Query, keyColumns []int, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := query.Validate(table.Schema()); err != nil {
		return nil, err
	}
	s := &Session{
		cfg:       cfg,
		table:     table.Clone(), // never mutate the caller's table
		xCol:      table.ColumnIndex(query.X),
		yCol:      table.ColumnIndex(query.Y),
		std:       map[string]*goldenrec.Standardizer{},
		answeredA: map[aKey]struct{}{},
		answeredM: map[dataset.TupleID]struct{}{},
		answeredO: map[dataset.TupleID]struct{}{},
	}

	s.queries = append(s.queries, query)
	for _, q := range cfg.Queries {
		if err := s.validateView(q); err != nil {
			return nil, err
		}
		s.queries = append(s.queries, q)
		obsViewRegistrations.Inc()
	}
	s.viewWeights = make([]float64, len(s.queries))
	for i := range s.viewWeights {
		s.viewWeights[i] = 1
		if i < len(cfg.ViewWeights) && cfg.ViewWeights[i] > 0 {
			s.viewWeights[i] = cfg.ViewWeights[i]
		}
	}
	s.basevis = make([]*basevisArtifact, len(s.queries))

	// The A-column set is the union over every view, in registration
	// order: the primary view's columns come first, so the N=1 session
	// sees exactly the historical ordering.
	for _, q := range s.queries {
		s.registerViewColumns(q)
	}
	if cfg.Artifacts != nil && !cfg.NoArtifactCache {
		s.fingerprint = table.Fingerprint()
	}
	s.rebuildStandardizers()

	s.matcher = em.NewMatcher(s.table, cfg.RF)
	if boot := s.acquireBootstrap(keyColumns); boot != nil {
		s.installBootstrap(boot)
	} else {
		s.candidates = em.Candidates(s.table, em.BlockingConfig{KeyColumns: keyColumns})
		s.bootstrapMatcher()
		s.refreshModel()
	}
	return s, nil
}

// bootstrapMatcher seeds the EM model with distant-supervision pseudo-
// labels: the candidate pairs the similarity heuristic ranks as most and
// least similar, gated by absolute sanity thresholds. No ground truth
// and no user budget is consumed. Rank-based selection matters because
// the heuristic's absolute scale shifts with the schema (a table with
// many near-constant numeric columns floats every pair's score up).
func (s *Session) bootstrapMatcher() {
	const maxSeedPerClass = 30
	type scored struct {
		p  em.Pair
		pr float64
	}
	// Feature vectors are computed once here and seeded into featCache:
	// the first refreshModel reuses them verbatim (no cells have changed
	// yet), halving session construction's dominant cost. Bit-identical
	// because Matcher.Prob is ProbWithFeatures over these same features.
	if s.featCache == nil {
		s.featCache = make(map[em.Pair][]float64, len(s.candidates))
	}
	all := make([]scored, 0, len(s.candidates))
	for _, p := range s.candidates {
		feats := s.matcher.Features(s.table, p)
		s.featCache[p] = feats
		all = append(all, scored{p: p, pr: s.matcher.ProbWithFeatures(p, feats)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pr != all[j].pr {
			return all[i].pr > all[j].pr
		}
		if all[i].p.A != all[j].p.A {
			return all[i].p.A < all[j].p.A
		}
		return all[i].p.B < all[j].p.B
	})
	pos := 0
	for _, sc := range all {
		if pos >= maxSeedPerClass || sc.pr < 0.88 {
			break
		}
		s.matcher.AddLabel(sc.p, true)
		pos++
	}
	neg := 0
	for i := len(all) - 1; i >= 0; i-- {
		sc := all[i]
		if neg >= maxSeedPerClass || sc.pr > 0.55 {
			break
		}
		s.matcher.AddLabel(sc.p, false)
		neg++
	}
}

// refreshModel retrains the matcher, refreshes the probability cache,
// rebuilds the synonym classes from the accumulated A votes and rebuilds
// the entity clustering (framework step 6's model update).
func (s *Session) refreshModel() {
	s.rel = nil
	_ = s.matcher.Train(s.table) // single-class training silently keeps the heuristic
	if s.featCache == nil {
		s.featCache = make(map[em.Pair][]float64, len(s.candidates))
	}
	s.probCache = make(map[em.Pair]float64, len(s.candidates))
	for _, p := range s.candidates {
		feats, ok := s.featCache[p]
		if !ok || s.pairDirty(p) {
			feats = s.matcher.Features(s.table, p)
			s.featCache[p] = feats
		}
		s.probCache[p] = s.matcher.ProbWithFeatures(p, feats)
	}
	s.dirtyIDs = nil
	if s.userLabeled {
		s.mergeList = s.hysteresisMergeList()
	} else {
		s.mergeList = nil // no auto-merging before the first user label
	}
	s.rebuildStandardizers()
	s.clusters = s.buildClusters(nil, nil)
	s.maintainKnnIndex()
}

// hysteresisMergeList selects the auto-merge pairs with a Schmitt-
// trigger rule: an unmerged pair merges when its probability clears
// threshold+margin, and a previously merged pair stays merged until it
// falls below threshold−margin. Retraining on a handful of new labels
// moves marginal probabilities a little every iteration; without the
// hysteresis those pairs flap in and out of the entity set and the
// visualization thrashes.
func (s *Session) hysteresisMergeList() []em.ScoredPair {
	margin := 0.07
	if s.cfg.NoHysteresis {
		margin = 0
	}
	th := s.cfg.ClusterThreshold
	merged := make(map[em.Pair]struct{}, len(s.prevMerged))
	keep := func(p em.Pair, pr float64) bool {
		if pr >= th+margin {
			return true
		}
		if _, was := s.prevMerged[p]; was && pr >= th-margin {
			return true
		}
		return false
	}
	var list []em.ScoredPair
	for _, p := range s.candidates {
		pr := s.prob(p)
		if keep(p, pr) {
			list = append(list, em.ScoredPair{Pair: p, Prob: pr})
			merged[p] = struct{}{}
		}
	}
	sortScored(list)
	s.prevMerged = merged
	return list
}

func sortScored(list []em.ScoredPair) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].Prob != list[j].Prob {
			return list[i].Prob > list[j].Prob
		}
		if list[i].Pair.A != list[j].Pair.A {
			return list[i].Pair.A < list[j].Pair.A
		}
		return list[i].Pair.B < list[j].Pair.B
	})
}

func (s *Session) pairDirty(p em.Pair) bool {
	if len(s.dirtyIDs) == 0 {
		return false
	}
	if _, ok := s.dirtyIDs[p.A]; ok {
		return true
	}
	_, ok := s.dirtyIDs[p.B]
	return ok
}

// markDirty records that a tuple's cells changed, invalidating cached
// pair features that involve it.
func (s *Session) markDirty(id dataset.TupleID) {
	if s.dirtyIDs == nil {
		s.dirtyIDs = map[dataset.TupleID]struct{}{}
	}
	s.dirtyIDs[id] = struct{}{}
}

// rebuildStandardizers reconstructs the per-column synonym classes from
// scratch: approvals merge value classes unless the merge would put a
// rejected pair into one class. On top of the literal approvals, learned
// transformation rules generalize them (see generalizeApprovals) —
// VisClean's Strategy-1 substrate is an unsupervised string
// transformation learner [11], and without generalization a budget of
// ~15 composite questions cannot touch hundreds of distinct variant
// spellings.
func (s *Session) rebuildStandardizers() {
	s.rel = nil
	schema := s.table.Schema()
	s.std = map[string]*goldenrec.Standardizer{}
	for _, c := range s.aColumns {
		s.std[schema[c].Name] = s.baseStandardizer(c)
	}
	for _, ap := range s.aApproved {
		st := s.std[ap.col]
		if st == nil || s.approveViolatesReject(st, ap) {
			continue
		}
		st.Approve(ap.v1, ap.v2)
	}
	if s.cfg.NoGeneralization {
		return
	}
	for _, c := range s.aColumns {
		s.generalizeApprovals(c, schema[c].Name)
	}
}

// generalizeApprovals feeds the user's approvals into a transformation
// learner (the paper's GoldenRecordCreation substrate [11], see
// internal/transform) and standardizes every group of column values the
// learned rules predict equivalent: approving "ACM SIGMOD" ≈ "SIGMOD"
// also merges "ACM KDD" into "KDD" without ever asking. A generalized
// merge is skipped when a user rejection contradicts it, so wrong
// generalizations are correctable (Exp-3 robustness).
func (s *Session) generalizeApprovals(col int, name string) {
	learner := transform.NewLearner()
	taught := false
	for _, ap := range s.aApproved {
		if ap.col != name {
			continue
		}
		learner.Observe(ap.v1, ap.v2)
		taught = true
	}
	if !taught {
		return
	}
	values := make([]string, 0)
	for v := range s.table.DistinctStrings(col) {
		values = append(values, v)
	}
	sort.Strings(values)
	st := s.std[name]
	for _, group := range learner.Groups(values) {
		for _, v := range group[1:] {
			key := makeAKey(name, group[0], v)
			if !s.approveViolatesReject(st, key) {
				st.Approve(group[0], v)
			}
		}
	}
}

// approveViolatesReject reports whether unioning ap's two values would
// join any rejected pair of the same column into one class.
func (s *Session) approveViolatesReject(st *goldenrec.Standardizer, ap aKey) bool {
	for _, rj := range s.aRejected {
		if rj.col != ap.col {
			continue
		}
		cross := (st.SameClass(rj.v1, ap.v1) && st.SameClass(rj.v2, ap.v2)) ||
			(st.SameClass(rj.v1, ap.v2) && st.SameClass(rj.v2, ap.v1))
		if cross {
			return true
		}
	}
	return false
}

// prob returns the cached matching probability of a candidate pair.
func (s *Session) prob(p em.Pair) float64 {
	if pr, ok := s.probCache[p]; ok {
		return pr
	}
	return s.matcher.Prob(s.table, p)
}

// buildClusters builds the entity partition under the accumulated user
// constraints plus optional extra hypothetical ones.
func (s *Session) buildClusters(extraConfirm, extraSplit []em.Pair) *em.Clusters {
	conf := s.confirmed
	spl := s.split
	if len(extraConfirm) > 0 {
		conf = append(append([]em.Pair(nil), conf...), extraConfirm...)
	}
	if len(extraSplit) > 0 {
		spl = append(append([]em.Pair(nil), spl...), extraSplit...)
	}
	return em.BuildClustersSorted(s.table, s.mergeList, em.ClusterConfig{
		Threshold: s.cfg.ClusterThreshold,
		Confirmed: conf,
		Split:     spl,
	})
}

// knnIdx returns the session's shared kNN token index, building it on
// first use. A-column cells are tokenized through the current
// standardizers (knnCanon); the value→canonical snapshot taken here is
// what maintainKnnIndex diffs against after later refreshes.
func (s *Session) knnIdx() *knn.Index {
	if s.knnIndex == nil && !s.knnFromArtifact() {
		s.knnIndex = knn.NewIndexCanon(s.table, s.yCol, s.knnCanon)
		s.snapshotCanon()
	}
	return s.knnIndex
}

// knnCanon maps a cell to the text the kNN index tokenizes: A-column
// text cells resolve to their synonym class's golden value under the
// session's current standardizers; everything else keeps its raw
// rendering. Before any approval Canonical is the identity, so a fresh
// index matches the historical raw-token behaviour exactly.
func (s *Session) knnCanon(col int, v dataset.Value) string {
	if txt, ok := v.Text(); ok {
		if st := s.stdByCol(col); st != nil {
			return st.Canonical(txt)
		}
	}
	return v.String()
}

// stdByCol resolves a column index to its standardizer (nil for
// non-A-columns).
func (s *Session) stdByCol(col int) *goldenrec.Standardizer {
	for _, c := range s.aColumns {
		if c == col {
			return s.std[s.table.Schema()[c].Name]
		}
	}
	return nil
}

// snapshotCanon records, per A-column, every distinct value's canonical
// form under the current standardizers and the rows carrying it.
func (s *Session) snapshotCanon() {
	s.canonSnap = make(map[int]map[string]string, len(s.aColumns))
	s.valueRows = make(map[int]map[string][]int, len(s.aColumns))
	schema := s.table.Schema()
	for _, c := range s.aColumns {
		st := s.std[schema[c].Name]
		snap := make(map[string]string)
		rowsOf := make(map[string][]int)
		for i := 0; i < s.table.NumRows(); i++ {
			txt, ok := s.table.Get(i, c).Text()
			if !ok {
				continue
			}
			if _, seen := snap[txt]; !seen {
				snap[txt] = st.Canonical(txt)
			}
			rowsOf[txt] = append(rowsOf[txt], i)
		}
		s.canonSnap[c] = snap
		s.valueRows[c] = rowsOf
	}
}

// maintainKnnIndex re-tokenizes the rows whose effective cell text
// changed since the last snapshot: a model refresh rebuilds the synonym
// classes, and any value whose canonical form moved stales the token
// sets of exactly the rows carrying it. Runs under both detect paths —
// it is a correctness fix (stale tokens made Q_M/Q_O rank against
// pre-approval text), not an optimization — and additionally marks the
// re-tokenized rows dirty for the incremental detector's neighbour
// cache.
func (s *Session) maintainKnnIndex() {
	if s.knnIndex == nil {
		return
	}
	schema := s.table.Schema()
	var rows []int
	for _, c := range s.aColumns {
		st := s.std[schema[c].Name]
		snap := s.canonSnap[c]
		for v, old := range snap {
			nc := st.Canonical(v)
			if nc == old {
				continue
			}
			snap[v] = nc
			rows = append(rows, s.valueRows[c][v]...)
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Ints(rows)
	rows = dedupSortedInts(rows)
	s.knnIndex.ResetRows(rows)
	if s.detect != nil {
		s.detect.markTokenDirty(rows)
	}
}

// Table returns the session's working table (with user repairs applied).
// Callers must not modify it: the session's charts are cached over it.
func (s *Session) Table() *dataset.Table { return s.table }

// Query returns the session's visualization query.
func (s *Session) Query() *vql.Query { return s.queries[0] }

// Iteration returns the number of completed iterations.
func (s *Session) Iteration() int { return s.iter }

// SetTraceLabel tags the session's iteration traces (visible at
// viscleanweb's /debug/traces). The label is observational only.
func (s *Session) SetTraceLabel(label string) { s.traceLabel = label }

// Timings breaks down one iteration's machine time per framework
// component (Fig 18's categories, plus the view/distance bookends the
// paper buckets under "refresh"). Each field also feeds the
// visclean_iteration_phase_seconds metric and the per-iteration trace
// span of the same phase name (see internal/obs and DESIGN.md §5).
//
// View is the after build: the committed relation rebuilt over the
// refreshed model, and every view's query executed over it. The before
// charts are that relation as the previous iteration left it, so they
// cost nothing — except on a session's first iteration, or after a
// cancelled iteration, an AddView or a Replay, when View also pays for
// building them.
type Timings struct {
	Detect   time.Duration // error detection: Q_T/Q_A/Q_M/Q_O generation
	BuildERG time.Duration // ERG construction
	Benefit  time.Duration // estimation-based benefit model (annotate)
	Select   time.Duration // CQG selection
	Apply    time.Duration // repairing data from answers
	Train    time.Duration // model retraining + cluster refresh
	View     time.Duration // committed-relation build + query execution (see below)
	Distance time.Duration // visualization distance computations (moved / to-truth)
}

// Total sums all components.
func (t Timings) Total() time.Duration {
	return t.Detect + t.BuildERG + t.Benefit + t.Select + t.Apply + t.Train + t.View + t.Distance
}

// Report describes one iteration's outcome.
type Report struct {
	Iteration int
	Selector  string
	// CQGVertices / CQGEdges describe the asked composite question
	// (zero for the Single baseline).
	CQGVertices int
	CQGEdges    int
	// CQGMembers is the selected CQG's vertex set, sorted by tuple id
	// (nil for the Single baseline). The determinism suite compares
	// these across runs and worker counts.
	CQGMembers []dataset.TupleID
	// BenefitEvals counts the unique hypothetical visualizations the
	// benefit model derived this iteration (memo cache misses).
	BenefitEvals int
	// MemoHits counts benefit prices served from the estimator's memo
	// instead of being re-derived (total requests − BenefitEvals).
	MemoHits int
	// DeltaAccepts / DeltaFallbacks split BenefitEvals by pricing path:
	// hypotheses the incremental delta pricer accepted vs. ones it
	// declined (posting/lookup miss), which fell back to the full
	// view-rebuild. Both are zero when the pricer is off
	// (Config.NoIncremental) or unavailable for the query.
	DeltaAccepts   int
	DeltaFallbacks int
	// DetectAccepts / DetectFallbacks split the detect phase's kNN
	// suggestion lookups by path: served from the incrementally
	// maintained neighbour cache vs. recomputed from the live index
	// (first sight or maintenance miss). DetectFull marks an iteration
	// that ran the full detect path (Config.NoIncrementalDetect).
	DetectAccepts   int
	DetectFallbacks int
	DetectFull      bool
	// Questions asked, split by kind, and how many went unanswered
	// (incomplete user input).
	TQuestions, AQuestions, MQuestions, OQuestions int
	Unanswered                                     int
	// EstimatedBenefit is the selected CQG's modeled benefit.
	EstimatedBenefit float64
	// DistToTruth is dist(Q(D), Q(D_g)) when Config.TruthVis is set.
	DistToTruth float64
	// DistMoved is dist(previous vis, new vis) of the primary view: the
	// actual change.
	DistMoved float64
	// ViewCharts holds each view's chart after this iteration, in view
	// registration order (index 0 = the primary query) — the panels a
	// multi-view frontend refreshes. Nil only on an exhausted iteration.
	ViewCharts []*vis.Data
	// ViewDistMoved is each view's dist(before, after) this iteration,
	// aligned with ViewCharts; ViewDistMoved[0] == DistMoved.
	ViewDistMoved []float64
	// Exhausted reports that the ERG ran out of questions.
	Exhausted bool
	Timings   Timings
}

// Questions returns the total number of questions asked this iteration.
func (r Report) Questions() int {
	return r.TQuestions + r.AQuestions + r.MQuestions + r.OQuestions
}
