// Package pipeline is VisClean's orchestrator, implementing the framework
// of §III (Fig 6): initialize the error detectors, build the ERG, price
// it with the benefit model, select the most beneficial CQG, put it to
// the user, apply the answers to the data and the cleaning models, and
// refresh the visualization — iterating until the interaction budget is
// spent.
package pipeline

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/dataset"
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

// Config parameterizes a cleaning session; a zero K selects the paper's
// 10. The paper fixes its other operating parameters for the whole
// evaluation (§VII), so they are not fields: every distance is
// distance.Default, the forest is rf.DefaultConfig (see forestConfig),
// and α, the B&B budget, the thresholds, the kNN k and the question
// caps are the constants below.
type Config struct {
	// Queries registers additional concurrent views beyond the primary
	// query passed to NewSession: the session then serves N dashboard
	// panels over the same base data, and every question's benefit is
	// the sum of its per-view distance deltas, so one answer improves
	// every panel at once. View 0 is always the primary query; an empty
	// slice is a single-view session. Every view must validate against
	// the schema and share the primary query's measure (Y) column — M/O
	// detection and repair write exactly one column.
	Queries []*vql.Query

	// K is the CQG size (paper default 10).
	K int
	// Selector picks the CQG selection algorithm (default GSS).
	Selector SelectorKind

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

	// Artifacts, when set, is the shared cross-session artifact cache
	// (internal/artifact, DESIGN.md §12). Session setup acquires the
	// heavy immutables — match candidates, feature vectors, the first
	// trained forest, token indexes, frozen standardizers, similarity
	// joins, the pristine views' executors — from it instead of
	// building them privately. Nil builds every one of them for this
	// session alone.
	Artifacts *artifact.Cache

	// TruthVis, when set, lets reports include the distance to the
	// ground-truth visualization (the experiments' EMD(Q(D), Q(D_g))).
	TruthVis *vis.Data
}

// The session's fixed operating parameters (§VII).
const (
	// alpha is SelectAlphaBB's approximation ratio.
	alpha = 5
	// bbMaxExpansions bounds B&B search work per iteration.
	bbMaxExpansions = 200000
	// clusterThreshold is the auto-merge probability.
	clusterThreshold = 0.5
	// simJoinThreshold is Algorithm 1's λ.
	simJoinThreshold = 0.4
	// imputeK is the kNN neighbourhood (§IV).
	imputeK = impute.DefaultK
	// maxT, maxA, maxM and maxO cap the questions of each kind per
	// iteration, bounding ERG size and benefit-model work.
	maxT, maxA, maxM, maxO = 40, 30, 15, 15
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.K == 0 {
		out.K = 10
	}
	return out
}

// forestConfig is the entity-matching forest every matcher of the
// session trains, and the emboot artifact's key: rf.DefaultConfig
// seeded by Config.Seed, fanned out over Config.Workers.
func (s *Session) forestConfig() rf.Config {
	cfg := rf.DefaultConfig()
	cfg.Seed = s.cfg.Seed + 1
	cfg.Workers = s.cfg.Workers
	return cfg
}

// Session is one interactive cleaning run over one table and one query.
type Session struct {
	cfg   Config
	table *dataset.Table

	// queries lists every registered view's query in registration
	// order; queries[0] is the primary query. Views added mid-session
	// (AddView) append here and log an AnswerKindV entry so replay
	// restores them at the same point.
	queries []*vql.Query

	xCol int // x-axis column index
	yCol int // y-axis (measure) column index

	// aColumns are the categorical columns eligible for A-questions: the
	// X axis if categorical, plus categorical WHERE columns (the paper's
	// Q7 cleans Venue synonyms inside the predicate).
	aColumns []int

	matcher *em.Matcher
	// candidates is the blocking candidate list, shared read-only with
	// the bootstrap artifact. The model state below is index-aligned
	// with it: feats[i] is candidate i's feature vector (replaced, never
	// written, so vectors may be shared too), probs[i] its matching
	// probability as of the last refresh and merged[i] whether it was in
	// the last auto-merge set, the input to the hysteresis rule (see
	// hysteresisMergeList).
	candidates []em.Pair
	feats      [][]float64
	probs      []float64
	merged     []bool
	// dirtyIDs lists the tuples whose cells changed since the last
	// refresh; it recomputes the features of the candidates incident to
	// them (see staleCandidates).
	dirtyIDs []dataset.TupleID
	// mergeList is the threshold-filtered, probability-sorted candidate
	// list, shared by every clustering rebuild within an iteration.
	mergeList []em.ScoredPair
	confirmed []em.Pair
	split     []em.Pair
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
	// rows carrying it, ascending: after a model refresh changes some
	// canonical forms, exactly the affected rows are re-tokenized (see
	// maintainKnnIndex). The first detect builds them; ERG construction
	// finds an A-question's tuples through valueRows too.
	knnIndex  *knn.Index
	canonSnap map[int]map[string]string
	valueRows map[int]map[string][]int

	// detect is the incrementally maintained detection state (see
	// detectdelta.go); nil until the first detect. lastDetect is the
	// most recent detect phase's accounting, copied into the iteration
	// Report.
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
	// shared standardizer bases.
	fingerprint string
	artMu       sync.Mutex
	artClosed   bool
	artHandles  []*artifact.Handle
	stdBase     map[int]*goldenrec.Standardizer
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

	// The A-column set is the union over every view, in registration
	// order: the primary view's columns come first, so the N=1 session
	// sees exactly the historical ordering.
	for _, q := range s.queries {
		s.registerViewColumns(q)
	}
	if cfg.Artifacts != nil {
		s.fingerprint = table.Fingerprint()
	}
	s.rebuildStandardizers()

	s.matcher = em.NewMatcher(s.table, s.forestConfig())
	s.installBootstrap(s.acquireBootstrap(keyColumns))
	return s, nil
}

// refreshModel retrains the matcher, refreshes the candidates' features
// and probabilities, rebuilds the synonym classes from the accumulated A
// votes and rebuilds the entity clustering (framework step 6's model
// update).
func (s *Session) refreshModel() {
	s.rel = nil
	_ = s.matcher.Train(s.table) // single-class training silently keeps the heuristic
	stale := s.staleCandidates()
	pairs := make([]em.Pair, len(stale))
	for j, i := range stale {
		pairs[j] = s.candidates[i]
	}
	for j, feats := range s.matcher.FeaturesOf(s.table, pairs) {
		s.feats[stale[j]] = feats
	}
	s.matcher.ProbsOf(s.candidates, s.feats, s.probs)
	s.dirtyIDs = nil
	if s.userLabeled {
		s.mergeList = s.hysteresisMergeList()
	} else {
		s.mergeList = nil // no auto-merging before the first user label
	}
	s.rebuildStandardizers()
	s.clusters = s.buildClusters()
	s.maintainKnnIndex()
}

// staleCandidates returns, ascending, the positions of the candidates
// incident to a tuple whose cells changed since the last refresh.
func (s *Session) staleCandidates() []int32 {
	if len(s.dirtyIDs) == 0 {
		return nil
	}
	cidx := s.detector().candidateIndex()
	var stale []int32
	for _, id := range s.dirtyIDs {
		stale = append(stale, cidx.Incident(id)...)
	}
	slices.Sort(stale)
	return slices.Compact(stale)
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
	var list []em.ScoredPair
	for i, pr := range s.probs {
		keep := pr >= clusterThreshold+margin || (s.merged[i] && pr >= clusterThreshold-margin)
		s.merged[i] = keep
		if keep {
			list = append(list, em.ScoredPair{Pair: s.candidates[i], Prob: pr})
		}
	}
	sort.Slice(list, func(i, j int) bool { return em.MergeBefore(list[i], list[j]) })
	return list
}

// markDirty records that a tuple's cells changed, invalidating the
// cached features of the candidates that involve it.
func (s *Session) markDirty(id dataset.TupleID) {
	s.dirtyIDs = append(s.dirtyIDs, id)
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

// buildClusters builds the entity partition under the accumulated user
// constraints.
func (s *Session) buildClusters() *em.Clusters {
	return em.BuildClustersSorted(s.table, s.mergeList, em.ClusterConfig{
		Confirmed: s.confirmed,
		Split:     s.split,
	})
}

// knnIdx returns the session's shared kNN token index, building it on
// first use (see knnFromArtifact). A-column cells are tokenized through
// the current standardizers (knnCanon); the value→canonical snapshot
// taken there is what maintainKnnIndex diffs against after later
// refreshes.
func (s *Session) knnIdx() *knn.Index {
	if s.knnIndex == nil {
		s.knnFromArtifact()
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
// sets of exactly the rows carrying it (stale tokens made Q_M/Q_O rank
// against pre-approval text). It also marks the re-tokenized rows dirty
// for the incremental detector's neighbour cache.
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
	slices.Sort(rows)
	rows = slices.Compact(rows)
	s.knnIndex.ResetRows(rows)
	if s.detect != nil {
		s.detect.markTokenDirty(rows)
	}
}

// Table returns the session's working table (with user repairs applied).
// Callers must not modify it: the session's charts are cached over it.
func (s *Session) Table() *dataset.Table { return s.table }

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
// refreshed model, with every view's incremental executor registered
// over its rows, the executor's base taken as the view's chart, and the
// chart's distance baseline. The next annotate prices against those
// executors and baselines without building its own. The before charts
// are that relation as the previous iteration left it, so they cost
// nothing — except on a session's first iteration, or after a cancelled
// iteration, an AddView or a Replay, when View also pays for building
// them.
type Timings struct {
	Detect   time.Duration // error detection: Q_T/Q_A/Q_M/Q_O generation
	BuildERG time.Duration // ERG construction
	Benefit  time.Duration // estimation-based benefit model (annotate)
	Select   time.Duration // CQG selection
	Apply    time.Duration // repairing data from answers
	Train    time.Duration // model retraining + cluster refresh
	View     time.Duration // committed-relation build + executor registration (see below)
	Distance time.Duration // visualization distance computations (moved / to-truth)
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
	// DetectAccepts / DetectFallbacks split the detect phase's kNN
	// suggestion lookups by path: served from the incrementally
	// maintained neighbour cache vs. recomputed from the live index
	// (first sight or maintenance miss).
	DetectAccepts   int
	DetectFallbacks int
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
