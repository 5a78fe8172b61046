package pipeline

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"visclean/internal/benefit"
	"visclean/internal/cqgselect"
	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/goldenrec"
	"visclean/internal/impute"
	"visclean/internal/outlier"
	"visclean/internal/stringsim"
	"visclean/internal/vis"
)

// questionSet is one iteration's repairing-candidate set Q = Q_T ∪ Q_A ∪
// Q_M ∪ Q_O (§IV).
type questionSet struct {
	T []em.ScoredPair
	A []aQuestion
	M []impute.Suggestion
	O []outlier.Detection
}

type aQuestion struct {
	col    int
	name   string
	v1, v2 string
	sim    float64
}

// RunIteration executes one full framework iteration against the user
// and returns its report. When the ERG is empty (nothing left to ask)
// the report's Exhausted flag is set and no user interaction happens.
func (s *Session) RunIteration(user User) (Report, error) {
	return s.RunIterationCtx(context.Background(), user)
}

// RunIterationCtx is RunIteration with cancellation: the context is
// checked between questions, so cancelling promptly aborts an in-flight
// iteration (e.g. when its session is closed or evicted) instead of
// orphaning it. On cancellation the answers already applied stay applied
// and are kept in the history log as partial answers; the model refresh
// and iteration commit are skipped, exactly as if the process had died
// mid-CQG.
func (s *Session) RunIterationCtx(ctx context.Context, user User) (Report, error) {
	rep := Report{Iteration: s.iter + 1, Selector: s.cfg.Selector.String()}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	iterStart := time.Now()

	start := time.Now()
	beforeAll, err := s.CurrentVisAll()
	rep.Timings.View += time.Since(start)
	if err != nil {
		return rep, err
	}

	start = time.Now()
	qs := s.detectQuestions()
	rep.Timings.Detect = time.Since(start)
	rep.DetectAccepts = s.lastDetect.accepts
	rep.DetectFallbacks = s.lastDetect.fallbacks
	rep.DetectFull = s.lastDetect.full

	if s.cfg.Selector == SelectSingle {
		if err := s.runSingleIteration(ctx, user, qs, beforeAll, &rep); err != nil {
			return rep, err
		}
	} else {
		if err := s.runCompositeIteration(ctx, user, qs, beforeAll, &rep); err != nil {
			return rep, err
		}
	}
	if rep.Exhausted {
		s.observeIteration(&rep, iterStart)
		return rep, nil
	}

	// Framework step 6: feed answers back into the models.
	start = time.Now()
	s.refreshModel()
	rep.Timings.Train = time.Since(start)

	// Framework step 7: refresh every view's visualization and measure
	// movement. DistMoved / DistToTruth stay primary-view scalars (the
	// historical report contract); the per-view trajectories ride along
	// in ViewCharts / ViewDistMoved.
	start = time.Now()
	afterAll, err := s.CurrentVisAll()
	rep.Timings.View += time.Since(start)
	if err != nil {
		return rep, err
	}
	after := afterAll[0]
	rep.ViewCharts = afterAll
	start = time.Now()
	rep.ViewDistMoved = make([]float64, len(s.queries))
	for v := range s.queries {
		rep.ViewDistMoved[v] = s.cfg.Dist(beforeAll[v], afterAll[v])
	}
	rep.DistMoved = rep.ViewDistMoved[0]
	if s.cfg.TruthVis != nil {
		rep.DistToTruth = s.cfg.Dist(after, s.cfg.TruthVis)
	}
	rep.Timings.Distance = time.Since(start)
	s.iter++
	rep.Iteration = s.iter
	s.commitCurrent()
	s.observeIteration(&rep, iterStart)
	return rep, nil
}

// Run executes up to budget iterations, stopping early when the ERG is
// exhausted, and returns the per-iteration reports.
func (s *Session) Run(user User, budget int) ([]Report, error) {
	var out []Report
	for i := 0; i < budget; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			return out, err
		}
		if rep.Exhausted {
			break
		}
		out = append(out, rep)
	}
	return out, nil
}

// detectQuestions runs the four detectors of §IV (framework step 2).
// Detection is pure: it reads session state but never mutates it, so a
// crash or cancellation between detect and commit leaves nothing to
// diverge on replay, and calling it repeatedly (equivalence suites,
// BuildAnnotatedERG) is side-effect-free. The incremental path (see
// detectdelta.go) serves the same questions from maintained structures;
// Config.NoIncrementalDetect restores the full per-iteration rebuild.
func (s *Session) detectQuestions() questionSet {
	var qs questionSet
	s.lastDetect = detectStats{}

	// Q_T: uncertain candidate pairs (active learning, §IV) — pairs with
	// probability close to 0.5. Uses the probability cache refreshed at
	// the last retrain instead of re-running the forest.
	qs.T = s.uncertainPairs(s.cfg.MaxT, 0.15, 0.9)

	d := s.detector()
	if d == nil {
		s.lastDetect.full = true
	}
	ix := s.knnIdx()
	if d != nil {
		d.sync(ix)
	}

	// Q_A: Algorithm 1 over the current clusters, per A-column.
	// Singleton clusters participate too: Strategy 2's cross-cluster
	// similarity join is what finds synonyms whose tuples are not
	// duplicates of anything (the paper's "ICDE 2013" ↔ "ICDE").
	groups := s.clusters.Groups(1)
	schema := s.table.Schema()
	for _, c := range s.aColumns {
		name := schema[c].Name
		st := s.std[name]
		var cands []goldenrec.Candidate
		if d != nil {
			cands = d.aCandidates(groups, c, s.cfg.SimJoinThreshold)
		} else {
			cands = goldenrec.Candidates(s.table, groups, c, s.cfg.SimJoinThreshold)
		}
		for _, cand := range cands {
			if len(qs.A) >= s.cfg.MaxA {
				break
			}
			if _, done := s.answeredA[makeAKey(name, cand.V1, cand.V2)]; done {
				continue
			}
			if st.SameClass(cand.V1, cand.V2) {
				// Already standardized — except that a near-dissimilar
				// pair inside one class smells like a wrong merge; ask
				// it as a verification question so a reject can cut the
				// class apart (wrong-label recovery).
				if cand.Sim >= 0.25 {
					continue
				}
			}
			qs.A = append(qs.A, aQuestion{col: c, name: name, v1: cand.V1, v2: cand.V2, sim: cand.Prob})
		}
	}

	// Q_M: kNN imputation suggestions for missing measure cells. The
	// token index is shared with the outlier repairer below and cached
	// for the session; the incremental path additionally caches each
	// tuple's ranked neighbour list across iterations.
	var suggest func(id dataset.TupleID) (impute.Suggestion, bool)
	if d != nil {
		suggest = d.suggestFor
	} else {
		suggest = impute.NewWithIndex(ix, s.cfg.ImputeK).SuggestFor
	}
	for _, id := range s.table.MissingIDs(s.yCol) {
		if len(qs.M) >= s.cfg.MaxM {
			break
		}
		if _, done := s.answeredM[id]; done {
			continue
		}
		if sug, ok := suggest(id); ok {
			qs.M = append(qs.M, sug)
		}
	}

	// Q_O: top kNN outlier scores. The anomaly gate's median is taken
	// over the full score distribution; repairs are computed lazily for
	// the detections actually emitted. The outlier detector clamps its k
	// below ImputeK on degenerate tables — mirror that clamp so the
	// suggested repairs match outlier.DetectWithIndex exactly.
	dets := outlier.Scores(s.table, s.yCol, s.cfg.ImputeK)
	med := medianScore(dets)
	kRep := s.cfg.ImputeK
	if len(dets) > 0 && kRep >= len(dets) {
		kRep = len(dets) - 1
	}
	oSuggest := suggest
	if kRep != s.cfg.ImputeK {
		if d != nil {
			oSuggest = func(id dataset.TupleID) (impute.Suggestion, bool) {
				return d.suggestForK(id, kRep)
			}
		} else {
			imO := impute.NewWithIndex(ix, kRep)
			oSuggest = imO.SuggestFor
		}
	}
	qs.O = pickOQuestions(dets, med, s.answeredO, s.cfg.MaxO, oSuggest)
	return qs
}

// pickOQuestions selects the O-questions from the scored detections
// (sorted by descending score): genuinely anomalous values up to the
// cap, re-asking an already-answered cell only when it is extremely
// anomalous — the earlier answer was probably wrong (Exp-3's
// wrong-label recovery: a couple of extra questions). Pure: the
// answered set is only read; re-answers overwrite on apply.
func pickOQuestions(dets []outlier.Detection, med float64, answered map[dataset.TupleID]struct{}, maxO int, suggest func(dataset.TupleID) (impute.Suggestion, bool)) []outlier.Detection {
	var out []outlier.Detection
	for _, d := range dets {
		if len(out) >= maxO {
			break
		}
		// Only genuinely anomalous values are worth a question; scores
		// are sorted descending, so the first miss ends the scan.
		if med > 0 && d.Score < 5*med {
			break
		}
		if _, done := answered[d.ID]; done {
			if med <= 0 || d.Score < 20*med {
				continue
			}
		}
		if sug, ok := suggest(d.ID); ok {
			d.Repair = sug.Value
			d.HasFix = true
		}
		out = append(out, d)
	}
	return out
}

// uncertainPairs ranks unlabeled candidates by |p−0.5| ascending from
// the cached probabilities, keeping only probabilities in [lo, hi].
func (s *Session) uncertainPairs(n int, lo, hi float64) []em.ScoredPair {
	scored := make([]em.ScoredPair, 0, len(s.candidates))
	for _, p := range s.candidates {
		if _, labeled := s.matcher.Label(p); labeled {
			continue
		}
		pr := s.prob(p)
		if pr < lo || pr > hi {
			continue
		}
		scored = append(scored, em.ScoredPair{Pair: p, Prob: pr})
	}
	sort.Slice(scored, func(a, b int) bool {
		da := scored[a].Prob - 0.5
		if da < 0 {
			da = -da
		}
		db := scored[b].Prob - 0.5
		if db < 0 {
			db = -db
		}
		if da != db {
			return da < db
		}
		if scored[a].Pair.A != scored[b].Pair.A {
			return scored[a].Pair.A < scored[b].Pair.A
		}
		return scored[a].Pair.B < scored[b].Pair.B
	})
	if n > 0 && len(scored) > n {
		scored = scored[:n]
	}
	return scored
}

// medianScore is the true median of the detections' scores: for
// even-length inputs the mean of the two middle elements, not the upper
// one. Callers pass the full score distribution — a median over a
// top-scores truncation would estimate the tail, not the population,
// and skew the 5×median anomaly gate.
func medianScore(dets []outlier.Detection) float64 {
	n := len(dets)
	if n == 0 {
		return 0
	}
	scores := make([]float64, n)
	for i, d := range dets {
		scores[i] = d.Score
	}
	sort.Float64s(scores)
	if n%2 == 1 {
		return scores[n/2]
	}
	return (scores[n/2-1] + scores[n/2]) / 2
}

// buildERG organizes the question set as an errors-and-repairs graph
// (framework step 3, Definition 2.1).
func (s *Session) buildERG(qs questionSet) *erg.Graph {
	vertexSet := map[dataset.TupleID]struct{}{}
	addV := func(id dataset.TupleID) {
		vertexSet[id] = struct{}{}
	}
	for _, sp := range qs.T {
		addV(sp.Pair.A)
		addV(sp.Pair.B)
	}
	for _, m := range qs.M {
		addV(m.ID)
	}
	for _, o := range qs.O {
		addV(o.ID)
	}
	// A-questions attach to tuple pairs exhibiting the two values. Prefer
	// a blocking candidate pair (Definition 2.1 puts p^t and p^a on the
	// same edge, which is also what lets GSS grow CQGs mixing both
	// question kinds); fall back to representative tuples. The
	// incremental path answers the lookup from the static candidate
	// index (candidate pairs and attribute cells never change) instead
	// of re-scanning the candidate list.
	var pairByValues map[avKey]em.Pair
	if d := s.detector(); d != nil {
		cidx := d.candidateIndex()
		pairByValues = make(map[avKey]em.Pair, len(qs.A))
		for _, q := range qs.A {
			key := aValueKey(q.col, q.v1, q.v2)
			if _, dup := pairByValues[key]; dup {
				continue
			}
			if p, ok := cidx.PairForValues(q.col, q.v1, q.v2); ok {
				pairByValues[key] = p
			}
		}
	} else {
		pairByValues = s.candidatePairsByValues(qs.A)
	}
	type aPlace struct {
		q    aQuestion
		a, b dataset.TupleID
		ok   bool
	}
	var placed []aPlace
	for _, q := range qs.A {
		p := aPlace{q: q}
		if cand, ok := pairByValues[aValueKey(q.col, q.v1, q.v2)]; ok {
			p.a, p.b, p.ok = cand.A, cand.B, true
		} else {
			a, okA := s.firstTupleWith(q.col, q.v1)
			b, okB := s.firstTupleWith(q.col, q.v2)
			if okA && okB && a != b {
				p.a, p.b, p.ok = a, b, true
			}
		}
		if p.ok {
			addV(p.a)
			addV(p.b)
		}
		placed = append(placed, p)
	}

	vertices := make([]dataset.TupleID, 0, len(vertexSet))
	for v := range vertexSet {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	g := erg.MustNew(vertices)

	// T-question edges. Every edge also carries an A-question when its
	// endpoints disagree on an A-column (Definition 2.1 weights each
	// edge with the pair (p^t, p^a)): even when the user splits the
	// tuples, the attribute question on the same edge still gets its
	// answer, which is much of the composite mechanism's leverage.
	edgeAt := map[em.Pair]int{}
	for _, sp := range qs.T {
		e := erg.Edge{A: sp.Pair.A, B: sp.Pair.B, HasT: true, PT: sp.Prob}
		s.attachAQuestion(&e)
		if err := g.AddEdge(e); err != nil {
			continue
		}
		edgeAt[sp.Pair] = g.NumEdges() - 1
	}
	// A-questions: prefer an existing T-edge whose endpoints carry the
	// two values; otherwise add a representative edge.
	for _, p := range placed {
		if !p.ok {
			continue
		}
		attached := false
		for i := 0; i < g.NumEdges() && !attached; i++ {
			e := g.Edge(i)
			if e.HasA {
				continue
			}
			if s.edgeShowsValues(e, p.q.col, p.q.v1, p.q.v2) {
				e.HasA = true
				e.PA = p.q.sim
				e.ACol = p.q.name
				e.AV1, e.AV2 = p.q.v1, p.q.v2
				attached = true
			}
		}
		if attached {
			continue
		}
		pair := em.MakePair(p.a, p.b)
		if i, exists := edgeAt[pair]; exists {
			e := g.Edge(i)
			if !e.HasA {
				e.HasA = true
				e.PA = p.q.sim
				e.ACol = p.q.name
				e.AV1, e.AV2 = p.q.v1, p.q.v2
			}
			continue
		}
		// New edge; when the endpoints are a blocking candidate the edge
		// carries the T-question too, exactly the (p^t, p^a) weighting of
		// Definition 2.1.
		e := erg.Edge{
			A: pair.A, B: pair.B,
			HasA: true, PA: p.q.sim, ACol: p.q.name, AV1: p.q.v1, AV2: p.q.v2,
		}
		if pr, isCand := s.probCache[pair]; isCand {
			if _, labeled := s.matcher.Label(pair); !labeled {
				e.HasT = true
				e.PT = pr
			}
		}
		if g.AddEdge(e) == nil {
			edgeAt[pair] = g.NumEdges() - 1
		}
	}

	// Vertex repairs.
	for _, m := range qs.M {
		_ = g.SetRepair(erg.VertexRepair{
			ID: m.ID, Kind: erg.Missing, Suggested: m.Value, Neighbors: m.Neighbors,
		})
	}
	for _, o := range qs.O {
		_ = g.SetRepair(erg.VertexRepair{
			ID: o.ID, Kind: erg.Outlier, Current: o.Value, Suggested: o.Repair, Score: o.Score,
		})
	}

	// Connect isolated repair vertices so CQGs can reach them: attach
	// each to its best candidate partner, or failing that to a nearest
	// neighbour with a question-free context edge.
	s.connectIsolated(g, qs)
	return g
}

// connectIsolated gives edge-less repair vertices a way into a CQG.
func (s *Session) connectIsolated(g *erg.Graph, qs questionSet) {
	d := s.detector()
	neighborOf := map[dataset.TupleID][]dataset.TupleID{}
	for _, m := range qs.M {
		neighborOf[m.ID] = m.Neighbors
	}
	for _, r := range g.Repairs() {
		if len(g.IncidentEdges(r.ID)) > 0 {
			continue
		}
		// Best blocking candidate touching this vertex. The incremental
		// path walks only the candidates incident to the vertex (same
		// elements in the same candidate-list order); the full path
		// scans the whole list.
		touching := s.candidates
		if d != nil {
			touching = d.candidateIndex().Incident(r.ID)
		}
		bestPair := em.Pair{}
		bestProb := -1.0
		for _, p := range touching {
			if p.A != r.ID && p.B != r.ID {
				continue
			}
			other := p.A
			if other == r.ID {
				other = p.B
			}
			if !g.HasVertex(other) {
				continue
			}
			if pr := s.prob(p); pr > bestProb {
				bestProb, bestPair = pr, p
			}
		}
		if bestProb >= 0 {
			_ = g.AddEdge(erg.Edge{A: bestPair.A, B: bestPair.B, HasT: true, PT: bestProb})
			continue
		}
		for _, nb := range neighborOf[r.ID] {
			if g.HasVertex(nb) && nb != r.ID {
				_ = g.AddEdge(erg.Edge{A: r.ID, B: nb}) // context-only edge
				break
			}
		}
	}
}

// attachAQuestion decorates an edge with the A-question implied by its
// endpoints: the first A-column on which both tuples carry differing,
// not-yet-standardized, not-yet-asked values. The approval probability
// is the values' token similarity.
func (s *Session) attachAQuestion(e *erg.Edge) {
	schema := s.table.Schema()
	for _, c := range s.aColumns {
		va, okA := s.table.GetByID(e.A, c)
		vb, okB := s.table.GetByID(e.B, c)
		if !okA || !okB {
			continue
		}
		ta, okA := va.Text()
		tb, okB := vb.Text()
		if !okA || !okB || ta == tb {
			continue
		}
		name := schema[c].Name
		if _, done := s.answeredA[makeAKey(name, ta, tb)]; done {
			continue
		}
		if st := s.std[name]; st != nil && st.SameClass(ta, tb) {
			continue
		}
		e.HasA = true
		e.PA = stringsim.Jaccard(ta, tb)
		e.ACol = name
		e.AV1, e.AV2 = ta, tb
		return
	}
}

// avKey identifies an unordered value pair within one column.
type avKey struct {
	col    int
	v1, v2 string
}

func aValueKey(col int, v1, v2 string) avKey {
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	return avKey{col: col, v1: v1, v2: v2}
}

// candidatePairsByValues finds, for each A-question's value pair, a
// blocking candidate tuple pair exhibiting those values — the natural
// edge to hang the A-question on. Deterministic: candidates are sorted.
func (s *Session) candidatePairsByValues(qs []aQuestion) map[avKey]em.Pair {
	want := make(map[avKey]struct{}, len(qs))
	cols := map[int]struct{}{}
	for _, q := range qs {
		want[aValueKey(q.col, q.v1, q.v2)] = struct{}{}
		cols[q.col] = struct{}{}
	}
	out := make(map[avKey]em.Pair)
	for _, p := range s.candidates {
		for c := range cols {
			va, okA := s.table.GetByID(p.A, c)
			vb, okB := s.table.GetByID(p.B, c)
			if !okA || !okB {
				continue
			}
			ta, okA := va.Text()
			tb, okB := vb.Text()
			if !okA || !okB || ta == tb {
				continue
			}
			key := aValueKey(c, ta, tb)
			if _, wanted := want[key]; !wanted {
				continue
			}
			if _, dup := out[key]; !dup {
				out[key] = p
			}
		}
	}
	return out
}

// firstTupleWith finds the smallest tuple id whose column c equals v.
func (s *Session) firstTupleWith(c int, v string) (dataset.TupleID, bool) {
	for i := 0; i < s.table.NumRows(); i++ {
		if txt, ok := s.table.Get(i, c).Text(); ok && txt == v {
			return s.table.ID(i), true
		}
	}
	return 0, false
}

func (s *Session) edgeShowsValues(e *erg.Edge, c int, v1, v2 string) bool {
	va, okA := s.table.GetByID(e.A, c)
	vb, okB := s.table.GetByID(e.B, c)
	if !okA || !okB {
		return false
	}
	ta, okA := va.Text()
	tb, okB := vb.Text()
	if !okA || !okB {
		return false
	}
	return (ta == v1 && tb == v2) || (ta == v2 && tb == v1)
}

// newEstimator builds one iteration's benefit estimator over the
// per-view base charts (registration order). Single-view sessions get
// exactly the historical estimator; multi-view sessions additionally
// carry the per-view bases and weights so every hypothesis prices as
// the cross-view weighted sum. Callers must freezeShared first.
func (s *Session) newEstimator(bases []*vis.Data, workers int) *benefit.Estimator {
	est := &benefit.Estimator{
		Dist:         s.cfg.Dist,
		Base:         bases[0],
		Hypothetical: s.hypotheticalVis,
		Workers:      workers,
	}
	if len(s.queries) > 1 {
		views := make([]benefit.View, len(s.queries))
		for v := range s.queries {
			views[v] = benefit.View{Base: bases[v], Weight: s.viewWeights[v]}
		}
		est.Views = views
		est.HypotheticalAll = s.hypotheticalVisAll
	}
	if !s.cfg.NoIncremental {
		if p := s.newDeltaPricer(); p != nil {
			est.Pricer = p.price
		}
	}
	return est
}

// annotateERG prices the ERG with the estimation-based benefit model
// (framework step 4a): the session's standardizers are frozen so
// concurrent hypothetical-visualization builds never write shared state,
// then the per-edge/per-repair pricing fans out across workers. Returns
// the estimator's work accounting (unique evaluations, memo hits,
// incremental accepts vs. fallbacks).
func (s *Session) annotateERG(g *erg.Graph, bases []*vis.Data, workers int) benefit.Stats {
	s.freezeShared()
	est := s.newEstimator(bases, workers)
	est.Annotate(g)
	return est.Stats()
}

// BuildAnnotatedERG runs detection, ERG construction and benefit
// annotation (framework steps 2–4a) against the current session state
// without asking the user anything, at the given worker count (< 1
// selects GOMAXPROCS). Session state is untouched, so repeated calls
// return identically annotated graphs — the entry point for benchmarks
// and diagnostics that need to measure or inspect the benefit model in
// isolation.
func (s *Session) BuildAnnotatedERG(workers int) (*erg.Graph, int, error) {
	before, err := s.CurrentVisAll()
	if err != nil {
		return nil, 0, err
	}
	qs := s.detectQuestions()
	g := s.buildERG(qs)
	st := s.annotateERG(g, before, workers)
	return g, st.Evals, nil
}

// runCompositeIteration performs steps 3–5 with a CQG. before holds
// each view's current chart in registration order.
func (s *Session) runCompositeIteration(ctx context.Context, user User, qs questionSet, before []*vis.Data, rep *Report) error {
	start := time.Now()
	g := s.buildERG(qs)
	rep.Timings.BuildERG = time.Since(start)

	if g.NumVertices() == 0 {
		rep.Exhausted = true
		return nil
	}

	// Step 4a: benefit model — parallel across cfg.Workers, bit-identical
	// at every worker count (see DESIGN.md "Concurrency and determinism").
	start = time.Now()
	rep.noteBenefit(s.annotateERG(g, before, s.cfg.Workers))
	rep.Timings.Benefit = time.Since(start)

	// Step 4b: CQG selection.
	start = time.Now()
	var res cqgselect.Result
	switch s.cfg.Selector {
	case SelectGSSPlus:
		res = cqgselect.GSSPlus(g, s.cfg.K, cqgselect.GSSPlusOptions{})
	case SelectBB:
		res = cqgselect.BranchAndBound(g, s.cfg.K, cqgselect.BBOptions{MaxExpansions: s.cfg.BBMaxExpansions})
	case SelectAlphaBB:
		res = cqgselect.AlphaBB(g, s.cfg.K, s.cfg.Alpha, s.cfg.BBMaxExpansions)
	case SelectRandom:
		res = cqgselect.Random(g, s.cfg.K, rand.New(rand.NewSource(s.cfg.Seed+int64(s.iter)*977)))
	default:
		res = cqgselect.GSS(g, s.cfg.K)
	}
	rep.Timings.Select = time.Since(start)

	if len(res.Vertices) == 0 {
		rep.Exhausted = true
		return nil
	}
	cqg := g.InducedSubgraph(res.Vertices)
	rep.CQGVertices = cqg.NumVertices()
	rep.CQGEdges = cqg.NumEdges()
	rep.CQGMembers = append([]dataset.TupleID(nil), res.Vertices...)
	rep.EstimatedBenefit = res.Benefit

	// Step 5: user answers the CQG; answers are applied immediately.
	start = time.Now()
	err := s.askCQG(ctx, user, cqg, rep)
	rep.Timings.Apply = time.Since(start)
	return err
}

// CQGObserver is an optional extension of User: a frontend implementing
// it is shown each composite question graph before its questions are
// asked, so it can render the graph GUI (§VI).
type CQGObserver interface {
	BeginCQG(g *erg.Graph)
}

// askCQG walks the CQG's questions and applies the answers (framework
// steps 5–6's data part). Cancellation is honoured between questions.
func (s *Session) askCQG(ctx context.Context, user User, cqg *erg.Graph, rep *Report) error {
	if obs, ok := user.(CQGObserver); ok {
		obs.BeginCQG(cqg)
	}
	for _, e := range cqg.Edges() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.HasT {
			rep.TQuestions++
			match, answered := user.AnswerT(e.A, e.B)
			if !answered {
				rep.Unanswered++
			} else {
				s.applyT(em.MakePair(e.A, e.B), match)
				if match {
					// Confirming the tuples also confirms their A-column
					// values (§VI): answer any attached A-question too.
					if e.HasA {
						rep.AQuestions++
						s.applyA(e.ACol, e.AV1, e.AV2, true)
					}
					continue
				}
			}
		}
		if e.HasA {
			rep.AQuestions++
			same, answered := user.AnswerA(e.ACol, e.AV1, e.AV2)
			if !answered {
				rep.Unanswered++
				continue
			}
			s.applyA(e.ACol, e.AV1, e.AV2, same)
		}
	}
	yName := s.table.Schema()[s.yCol].Name
	for _, r := range cqg.Repairs() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.Kind == erg.Missing {
			rep.MQuestions++
			v, answered := user.AnswerM(yName, r.ID)
			if !answered {
				rep.Unanswered++
				continue
			}
			s.applyM(r.ID, v)
		} else {
			rep.OQuestions++
			isOut, v, answered := user.AnswerO(yName, r.ID, r.Current)
			if !answered {
				rep.Unanswered++
				continue
			}
			s.applyO(r.ID, isOut, v)
		}
	}
	return nil
}

// applyT records a T answer: matcher label + must/cannot-link. A
// confirmation also equates the pair's values in every A-column (§VI
// label-edge semantics), recorded as revocable approve votes.
func (s *Session) applyT(p em.Pair, match bool) {
	s.logAnswer(Answer{Kind: AnswerKindT, A: p.A, B: p.B, Yes: match})
	s.matcher.AddLabel(p, match)
	s.userLabeled = true
	if !match {
		s.split = append(s.split, p)
		return
	}
	s.confirmed = append(s.confirmed, p)
	schema := s.table.Schema()
	for _, c := range s.aColumns {
		va, okA := s.table.GetByID(p.A, c)
		vb, okB := s.table.GetByID(p.B, c)
		if !okA || !okB {
			continue
		}
		ta, okA := va.Text()
		tb, okB := vb.Text()
		if !okA || !okB || ta == tb {
			continue
		}
		s.aApproved = append(s.aApproved, makeAKey(schema[c].Name, ta, tb))
	}
}

// applyA records an A answer as a vote; classes are rebuilt on the next
// model refresh so a rejection can cut a conflicting earlier approval.
func (s *Session) applyA(column, v1, v2 string, same bool) {
	s.logAnswer(Answer{Kind: AnswerKindA, Column: column, V1: v1, V2: v2, Yes: same})
	key := makeAKey(column, v1, v2)
	s.answeredA[key] = struct{}{}
	if same {
		s.aApproved = append(s.aApproved, key)
	} else {
		s.aRejected = append(s.aRejected, key)
	}
}

// applyM writes the user's imputation into the working table.
func (s *Session) applyM(id dataset.TupleID, v float64) {
	s.logAnswer(Answer{Kind: AnswerKindM, A: id, Value: v})
	s.answeredM[id] = struct{}{}
	_ = s.table.SetByID(id, s.yCol, dataset.Num(v))
	s.markDirty(id)
}

// applyO writes the user's outlier verdict into the working table.
func (s *Session) applyO(id dataset.TupleID, isOutlier bool, v float64) {
	s.logAnswer(Answer{Kind: AnswerKindO, A: id, Yes: isOutlier, Value: v})
	s.answeredO[id] = struct{}{}
	if isOutlier {
		_ = s.table.SetByID(id, s.yCol, dataset.Num(v))
		s.markDirty(id)
	}
}
