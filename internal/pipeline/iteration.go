package pipeline

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"time"

	"visclean/internal/benefit"
	"visclean/internal/cqgselect"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/goldenrec"
	"visclean/internal/impute"
	"visclean/internal/outlier"
	"visclean/internal/stringsim"
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

	if s.cfg.Selector == SelectSingle {
		if err := s.runSingleIteration(ctx, user, qs, &rep); err != nil {
			return rep, err
		}
	} else {
		if err := s.runCompositeIteration(ctx, user, qs, &rep); err != nil {
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
		rep.ViewDistMoved[v] = distance.Default(beforeAll[v], afterAll[v])
	}
	rep.DistMoved = rep.ViewDistMoved[0]
	if s.cfg.TruthVis != nil {
		rep.DistToTruth = distance.Default(after, s.cfg.TruthVis)
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
// BuildAnnotatedERG) is side-effect-free. It brings the maintained
// detection structures up to date (see detectdelta.go) and serves the
// questions from them.
func (s *Session) detectQuestions() questionSet {
	s.lastDetect = detectStats{}
	d := s.detector()
	d.sync(s.knnIdx())
	return s.questionsFrom(d.aCandidates, d.suggestForK)
}

// questionsFrom assembles the question set from two detector sources:
// aCands lists one A-column's Algorithm 1 candidates over the current
// clusters, and suggest computes one tuple's kNN repair over a
// neighbourhood of k. Everything else — the caps, the answered sets, the
// SameClass gate and the outlier gate — is selection logic applied here,
// so the equivalence suite can hold the maintained sources against the
// from-scratch detectors (goldenrec.Candidates, impute.NewWithIndex)
// through the same selection.
func (s *Session) questionsFrom(
	aCands func(groups [][]dataset.TupleID, col int, threshold float64) []goldenrec.Candidate,
	suggest func(id dataset.TupleID, k int) (impute.Suggestion, bool),
) questionSet {
	var qs questionSet

	// Q_T: uncertain candidate pairs (active learning, §IV) — pairs with
	// probability close to 0.5. Uses the probability cache refreshed at
	// the last retrain instead of re-running the forest.
	qs.T = s.uncertainPairs(maxT, 0.15, 0.9)

	// Q_A: Algorithm 1 over the current clusters, per A-column.
	// Singleton clusters participate too: Strategy 2's cross-cluster
	// similarity join is what finds synonyms whose tuples are not
	// duplicates of anything (the paper's "ICDE 2013" ↔ "ICDE").
	groups := s.clusters.Groups(1)
	schema := s.table.Schema()
	for _, c := range s.aColumns {
		name := schema[c].Name
		st := s.std[name]
		for _, cand := range aCands(groups, c, simJoinThreshold) {
			if len(qs.A) >= maxA {
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
	// token index is shared with the outlier repairer below.
	for _, id := range s.table.MissingIDs(s.yCol) {
		if len(qs.M) >= maxM {
			break
		}
		if _, done := s.answeredM[id]; done {
			continue
		}
		if sug, ok := suggest(id, imputeK); ok {
			qs.M = append(qs.M, sug)
		}
	}

	// Q_O: top kNN outlier scores. The anomaly gate's median is taken
	// over the full score distribution; repairs are computed lazily for
	// the detections actually emitted. The outlier detector clamps its k
	// below imputeK on degenerate tables — mirror that clamp so the
	// suggested repairs match outlier.DetectWithIndex exactly.
	dets := outlier.Scores(s.table, s.yCol, imputeK)
	med := medianScore(dets)
	kRep := imputeK
	if len(dets) > 0 && kRep >= len(dets) {
		kRep = len(dets) - 1
	}
	qs.O = pickOQuestions(dets, med, s.answeredO, maxO, func(id dataset.TupleID) (impute.Suggestion, bool) {
		return suggest(id, kRep)
	})
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
// the cached probabilities, keeping only probabilities in [lo, hi], and
// returns the first n (all when n ≤ 0). A bounded buffer keeps the n
// best; candidates are distinct pairs, so moreUncertain is a strict
// total order and the buffer holds exactly the first n of a full sort.
func (s *Session) uncertainPairs(n int, lo, hi float64) []em.ScoredPair {
	var top []em.ScoredPair
	for i, pr := range s.probs {
		if pr < lo || pr > hi {
			continue
		}
		if _, labeled := s.matcher.Label(s.candidates[i]); labeled {
			continue
		}
		sp := em.ScoredPair{Pair: s.candidates[i], Prob: pr}
		if n <= 0 {
			top = append(top, sp)
			continue
		}
		top = insertBounded(top, sp, n, moreUncertain)
	}
	if n <= 0 {
		sort.Slice(top, func(a, b int) bool { return moreUncertain(top[a], top[b]) })
	}
	return top
}

// insertBounded inserts x into top, which holds at most n elements in
// ascending less order, and drops the last element when top overflows.
// Under a strict total order, feeding every element of a list through it
// leaves the first n of the sorted list.
func insertBounded[T any](top []T, x T, n int, less func(a, b T) bool) []T {
	if len(top) == n {
		if !less(x, top[n-1]) {
			return top
		}
		top = top[:n-1]
	}
	pos := sort.Search(len(top), func(j int) bool { return less(x, top[j]) })
	return slices.Insert(top, pos, x)
}

// moreUncertain orders Q_T candidates: ascending |p−0.5|, then
// ascending (A, B).
func moreUncertain(a, b em.ScoredPair) bool {
	da := a.Prob - 0.5
	if da < 0 {
		da = -da
	}
	db := b.Prob - 0.5
	if db < 0 {
		db = -db
	}
	if da != db {
		return da < db
	}
	if a.Pair.A != b.Pair.A {
		return a.Pair.A < b.Pair.A
	}
	return a.Pair.B < b.Pair.B
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
	// question kinds), looked up in the static candidate index through
	// the rows carrying each value (candidate pairs and attribute cells
	// never change); fall back to representative tuples, the first row
	// carrying each value.
	cidx := s.detector().candidateIndex()
	type aPlace struct {
		q    aQuestion
		a, b dataset.TupleID
		ok   bool
	}
	var placed []aPlace
	for _, q := range qs.A {
		p := aPlace{q: q}
		rows1, rows2 := s.valueRows[q.col][q.v1], s.valueRows[q.col][q.v2]
		if cand, ok := cidx.PairForValues(q.col, q.v1, q.v2, rows1, rows2); ok {
			p.a, p.b, p.ok = cand.A, cand.B, true
		} else if len(rows1) > 0 && len(rows2) > 0 {
			if a, b := s.table.ID(rows1[0]), s.table.ID(rows2[0]); a != b {
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
		if i, isCand := cidx.Find(pair); isCand {
			if _, labeled := s.matcher.Label(pair); !labeled {
				e.HasT = true
				e.PT = s.probs[i]
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
	cidx := s.detector().candidateIndex()
	neighborOf := map[dataset.TupleID][]dataset.TupleID{}
	for _, m := range qs.M {
		neighborOf[m.ID] = m.Neighbors
	}
	for _, r := range g.Repairs() {
		if len(g.IncidentEdges(r.ID)) > 0 {
			continue
		}
		// Best blocking candidate touching this vertex, walking only the
		// candidates incident to it, in candidate-list order.
		bestPair := em.Pair{}
		bestProb := -1.0
		for _, i := range cidx.Incident(r.ID) {
			p := s.candidates[i]
			other := p.A
			if other == r.ID {
				other = p.B
			}
			if !g.HasVertex(other) {
				continue
			}
			if pr := s.probs[i]; pr > bestProb {
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
// endpoints: the first of their A-column differences (tPairChanges, in
// endpoint order) that is neither answered nor already one class. The
// approval probability is the values' token similarity.
func (s *Session) attachAQuestion(e *erg.Edge) {
	for _, ch := range s.tPairChanges(em.Pair{A: e.A, B: e.B}) {
		if _, done := s.answeredA[makeAKey(ch.name, ch.v1, ch.v2)]; done {
			continue
		}
		if st := s.std[ch.name]; st != nil && st.SameClass(ch.v1, ch.v2) {
			continue
		}
		e.HasA = true
		e.PA = stringsim.Jaccard(ch.v1, ch.v2)
		e.ACol = ch.name
		e.AV1, e.AV2 = ch.v1, ch.v2
		return
	}
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

// newEstimator builds one iteration's benefit estimator over the delta
// pricer, so every hypothesis prices as the sum of its per-view
// distances from the committed charts. Callers must freezeShared first.
func (s *Session) newEstimator(workers int) (*benefit.Estimator, error) {
	p, err := s.newDeltaPricer()
	if err != nil {
		return nil, err
	}
	return &benefit.Estimator{Price: p.price, Workers: workers}, nil
}

// annotateERG prices the ERG with the estimation-based benefit model
// (framework step 4a): the session's standardizers are frozen so
// concurrent pricing never writes shared state, then the
// per-edge/per-repair pricing fans out across workers. Returns the
// estimator's work accounting (unique evaluations, memo hits).
func (s *Session) annotateERG(g *erg.Graph, workers int) (benefit.Stats, error) {
	s.freezeShared()
	est, err := s.newEstimator(workers)
	if err != nil {
		return benefit.Stats{}, err
	}
	est.Annotate(g)
	return est.Stats(), nil
}

// BuildAnnotatedERG runs detection, ERG construction and benefit
// annotation (framework steps 2–4a) against the current session state
// without asking the user anything, at the given worker count (< 1
// selects GOMAXPROCS). Session state is untouched, so repeated calls
// return identically annotated graphs — the entry point for benchmarks
// and diagnostics that need to measure or inspect the benefit model in
// isolation.
func (s *Session) BuildAnnotatedERG(workers int) (*erg.Graph, int, error) {
	g := s.buildERG(s.detectQuestions())
	st, err := s.annotateERG(g, workers)
	if err != nil {
		return nil, 0, err
	}
	return g, st.Evals, nil
}

// runCompositeIteration performs steps 3–5 with a CQG.
func (s *Session) runCompositeIteration(ctx context.Context, user User, qs questionSet, rep *Report) error {
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
	st, err := s.annotateERG(g, s.cfg.Workers)
	if err != nil {
		return err
	}
	rep.noteBenefit(st)
	rep.Timings.Benefit = time.Since(start)

	// Step 4b: CQG selection.
	start = time.Now()
	var res cqgselect.Result
	switch s.cfg.Selector {
	case SelectGSSPlus:
		res = cqgselect.GSSPlus(g, s.cfg.K)
	case SelectBB:
		res = cqgselect.BranchAndBound(g, s.cfg.K, cqgselect.BBOptions{MaxExpansions: bbMaxExpansions})
	case SelectAlphaBB:
		res = cqgselect.AlphaBB(g, s.cfg.K, alpha, bbMaxExpansions)
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
	err = s.askCQG(ctx, user, cqg, rep)
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
		s.askEdge(user, e, rep)
	}
	for _, r := range cqg.Repairs() {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.askRepair(user, r, rep)
	}
	return nil
}

// askEdge asks an edge's T-question, then its A-question, and applies
// the answers. A confirmed T-question answers the attached A-question
// too: confirming the tuples also confirms their A-column values (§VI).
func (s *Session) askEdge(user User, e erg.Edge, rep *Report) {
	if e.HasT {
		rep.TQuestions++
		match, answered := user.AnswerT(e.A, e.B)
		if !answered {
			rep.Unanswered++
		} else {
			s.applyT(em.MakePair(e.A, e.B), match)
			if match {
				if e.HasA {
					rep.AQuestions++
					s.applyA(e.ACol, e.AV1, e.AV2, true)
				}
				return
			}
		}
	}
	if e.HasA {
		rep.AQuestions++
		same, answered := user.AnswerA(e.ACol, e.AV1, e.AV2)
		if !answered {
			rep.Unanswered++
			return
		}
		s.applyA(e.ACol, e.AV1, e.AV2, same)
	}
}

// askRepair asks a vertex repair's M- or O-question and applies the
// answer.
func (s *Session) askRepair(user User, r *erg.VertexRepair, rep *Report) {
	yName := s.table.Schema()[s.yCol].Name
	if r.Kind == erg.Missing {
		rep.MQuestions++
		v, answered := user.AnswerM(yName, r.ID)
		if !answered {
			rep.Unanswered++
			return
		}
		s.applyM(r.ID, v)
		return
	}
	rep.OQuestions++
	isOut, v, answered := user.AnswerO(yName, r.ID, r.Current)
	if !answered {
		rep.Unanswered++
		return
	}
	s.applyO(r.ID, isOut, v)
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
	for _, ch := range s.tPairChanges(p) {
		s.aApproved = append(s.aApproved, makeAKey(ch.name, ch.v1, ch.v2))
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
