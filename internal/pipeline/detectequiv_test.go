package pipeline

// The detect-equivalence suite: the maintained detection structures
// (detectdelta.go) must serve bit-identical question sets to the
// from-scratch detectors, every iteration, under every selector and
// worker count — the same contract incremental_test.go enforces for
// benefit pricing. Alongside it live the regression tests for three
// detect-phase bugs: detection mutating session state (the O re-ask
// delete), the kNN index never seeing A-merge repairs, and medianScore
// returning the upper middle element of a truncated score list.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/goldenrec"
	"visclean/internal/impute"
	"visclean/internal/knn"
	"visclean/internal/outlier"
	"visclean/internal/stringsim"
)

// assertQuestionSetsEqual compares two question sets field by field.
// Floats are compared by bit pattern: the incremental path promises the
// very float the full rebuild computes, not an approximation of it.
func assertQuestionSetsEqual(t *testing.T, label string, a, b questionSet) {
	t.Helper()
	if len(a.T) != len(b.T) || len(a.A) != len(b.A) || len(a.M) != len(b.M) || len(a.O) != len(b.O) {
		t.Fatalf("%s: question counts differ: T %d/%d A %d/%d M %d/%d O %d/%d",
			label, len(a.T), len(b.T), len(a.A), len(b.A), len(a.M), len(b.M), len(a.O), len(b.O))
	}
	for i := range a.T {
		x, y := a.T[i], b.T[i]
		if x.Pair != y.Pair || math.Float64bits(x.Prob) != math.Float64bits(y.Prob) {
			t.Fatalf("%s: T[%d] differs: %+v vs %+v", label, i, x, y)
		}
	}
	for i := range a.A {
		x, y := a.A[i], b.A[i]
		if x.col != y.col || x.name != y.name || x.v1 != y.v1 || x.v2 != y.v2 ||
			math.Float64bits(x.sim) != math.Float64bits(y.sim) {
			t.Fatalf("%s: A[%d] differs: %+v vs %+v", label, i, x, y)
		}
	}
	for i := range a.M {
		x, y := a.M[i], b.M[i]
		if x.ID != y.ID || math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
			!reflect.DeepEqual(x.Neighbors, y.Neighbors) {
			t.Fatalf("%s: M[%d] differs: %+v vs %+v", label, i, x, y)
		}
	}
	for i := range a.O {
		x, y := a.O[i], b.O[i]
		if x.ID != y.ID || x.HasFix != y.HasFix ||
			math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) ||
			math.Float64bits(x.Repair) != math.Float64bits(y.Repair) {
			t.Fatalf("%s: O[%d] differs: %+v vs %+v", label, i, x, y)
		}
	}
}

// referenceQuestions selects the question set from the from-scratch
// detectors — goldenrec.Candidates for Q_A, a fresh kNN imputer over the
// live token index for Q_M and Q_O — through the same selection logic
// detectQuestions applies to the maintained ones.
func referenceQuestions(s *Session) questionSet {
	ix := s.knnIdx()
	return s.questionsFrom(
		func(groups [][]dataset.TupleID, col int, threshold float64) []goldenrec.Candidate {
			return goldenrec.Candidates(s.table, groups, col, threshold)
		},
		func(id dataset.TupleID, k int) (impute.Suggestion, bool) {
			return impute.NewWithIndex(ix, k).SuggestFor(id)
		})
}

// runDetectEquivalence drives one session and, before each iteration,
// requires the maintained detectors' question set to equal the
// reference detectors' field by field. Detection is pure, so both run
// on the live session without perturbing its course.
func runDetectEquivalence(t *testing.T, sel SelectorKind, seed int64, workers int) {
	t.Helper()
	s, user := newDetSession(t, sel, seed, workers)
	var accepts, fallbacks int
	for iter := 0; iter < 4; iter++ {
		label := fmt.Sprintf("%s/seed%d/w%d iter %d", sel, seed, workers, iter+1)
		assertQuestionSetsEqual(t, label, s.detectQuestions(), referenceQuestions(s))
		accepts += s.lastDetect.accepts
		fallbacks += s.lastDetect.fallbacks
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		accepts += rep.DetectAccepts
		fallbacks += rep.DetectFallbacks
		if rep.Exhausted {
			break
		}
	}
	if accepts == 0 || fallbacks == 0 {
		t.Errorf("maintained neighbour cache not exercised: %d accepts, %d fallbacks", accepts, fallbacks)
	}
}

// TestDetectEquivalencePerIteration is the detect twin of
// TestIncrementalFullSessionEquivalence: every selector × seed × worker
// combination must produce identical question sets from both sources at
// every iteration. scripts/check.sh runs this under -race with obs on.
func TestDetectEquivalencePerIteration(t *testing.T) {
	for _, sel := range []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB} {
		for _, seed := range []int64{7, 13} {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/seed%d/workers%d", sel, seed, workers), func(t *testing.T) {
					t.Parallel()
					runDetectEquivalence(t, sel, seed, workers)
				})
			}
		}
	}
}

// TestDetectCacheServesRepeatedSuggestions pins the accept path: with no
// repairs between two detects, the second must serve its kNN suggestions
// from the maintained neighbour cache, and serve the same values.
func TestDetectCacheServesRepeatedSuggestions(t *testing.T) {
	s, _ := newDetSession(t, SelectGSS, 7, 1)
	qs1 := s.detectQuestions()
	if len(qs1.M)+len(qs1.O) == 0 {
		t.Fatal("seed 7 produced no M/O questions; the cache path is untested")
	}
	qs2 := s.detectQuestions()
	assertQuestionSetsEqual(t, "repeat detect", qs1, qs2)
	if s.lastDetect.accepts == 0 {
		t.Error("second detect hit the cache 0 times, want > 0")
	}
}

// TestDetectQuestionsPure is the regression test for the O re-ask
// mutation: detectQuestions used to delete extreme detections from
// answeredO before the iteration committed, so a crash between detect
// and commit left the live session diverged from its own answer log.
// Detection must read session state without writing any of it.
func TestDetectQuestionsPure(t *testing.T) {
	s, orc := newDetSession(t, SelectGSS, 7, 1)
	if _, err := s.RunIteration(orc); err != nil {
		t.Fatal(err)
	}
	// Mark every current detection as already answered: under the old
	// code any of them scoring past the re-ask gate was deleted from the
	// map during detect.
	for _, d := range outlier.Scores(s.table, s.yCol, imputeK) {
		s.answeredO[d.ID] = struct{}{}
	}
	before := make(map[dataset.TupleID]struct{}, len(s.answeredO))
	for id := range s.answeredO {
		before[id] = struct{}{}
	}
	answersBefore := s.History().NumAnswers()

	qs1 := s.detectQuestions()
	qs2 := s.detectQuestions()

	assertQuestionSetsEqual(t, "repeated pure detect", qs1, qs2)
	if !reflect.DeepEqual(before, s.answeredO) {
		t.Errorf("detectQuestions mutated answeredO: %d entries before, %d after", len(before), len(s.answeredO))
	}
	if got := s.History().NumAnswers(); got != answersBefore {
		t.Errorf("detectQuestions logged answers: %d before, %d after", answersBefore, got)
	}
}

// TestReplayAfterMidIterationKillContinues kills an iteration mid-CQG,
// restores a fresh session from the answer log, and requires both
// sessions to keep cleaning identically. With detection impure (the old
// re-ask delete) the live session carried state the log never recorded
// and the two could diverge on later O-questions.
func TestReplayAfterMidIterationKillContinues(t *testing.T) {
	live, orc := newDetSession(t, SelectGSS, 7, 1)
	if _, err := live.RunIteration(orc); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cu := &cancellingUser{inner: orc, cancel: cancel, stopAfter: 2}
	if _, err := live.RunIterationCtx(ctx, cu); err == nil {
		t.Fatal("iteration finished before cancellation could interrupt it")
	} else if ctx.Err() == nil {
		t.Fatalf("unexpected error: %v", err)
	}
	h := live.History()
	if len(h.Partial) == 0 {
		t.Fatal("cancelled iteration logged no partial answers")
	}

	restored, orcR := newDetSession(t, SelectGSS, 7, 1)
	if err := restored.Replay(h); err != nil {
		t.Fatal(err)
	}

	// The perfect oracle consumes no RNG, so the fresh one answers
	// exactly like the live session's.
	for i := 0; i < 3; i++ {
		repL, errL := live.RunIteration(orc)
		repR, errR := restored.RunIteration(orcR)
		if (errL == nil) != (errR == nil) {
			t.Fatalf("iteration %d errors diverge: %v vs %v", i+1, errL, errR)
		}
		if errL != nil {
			t.Fatal(errL)
		}
		if repL.Exhausted != repR.Exhausted {
			t.Fatalf("iteration %d exhaustion diverges", i+1)
		}
		if repL.Exhausted {
			break
		}
		if repL.Questions() != repR.Questions() {
			t.Errorf("iteration %d question counts diverge: %d vs %d", i+1, repL.Questions(), repR.Questions())
		}
		if repL.EstimatedBenefit != repR.EstimatedBenefit {
			t.Errorf("iteration %d benefits diverge: %v vs %v", i+1, repL.EstimatedBenefit, repR.EstimatedBenefit)
		}
	}

	hL, err := json.Marshal(live.History())
	if err != nil {
		t.Fatal(err)
	}
	hR, err := json.Marshal(restored.History())
	if err != nil {
		t.Fatal(err)
	}
	if string(hL) != string(hR) {
		t.Errorf("continued answer logs diverge:\n%s\nvs\n%s", hL, hR)
	}
	vL, errL := live.CurrentVis()
	vR, errR := restored.CurrentVis()
	if errL != nil || errR != nil {
		t.Fatalf("final vis errors: %v, %v", errL, errR)
	}
	visEqual(t, vL, vR)
}

// TestAMergeChangesImputationNeighbors is the regression test for the
// stale kNN index: the shared token index was built once and never saw
// A-repairs, so approving a synonym never changed which neighbours later
// imputations averaged over. After an A-merge the maintained index must
// re-tokenize the affected rows — matching a from-scratch rebuild — and
// the neighbour lists of those rows must actually move.
func TestAMergeChangesImputationNeighbors(t *testing.T) {
	s, _ := newDetSession(t, SelectGSS, 7, 1)
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 7})

	venue := -1
	for i, c := range s.table.Schema() {
		if c.Name == "Venue" {
			venue = i
		}
	}
	if venue < 0 {
		t.Fatal("no Venue column")
	}

	// Rows per distinct venue value, and a ground-truth synonym pair
	// whose variants both occur and tokenize differently (identical
	// token sets would leave the index unchanged by construction).
	rowsOf := map[string][]int{}
	for r := 0; r < s.table.NumRows(); r++ {
		if txt, ok := s.table.Get(r, venue).Text(); ok {
			rowsOf[txt] = append(rowsOf[txt], r)
		}
	}
	// Pick the pair deterministically — map iteration order must not
	// choose it, or the test asserts a different merge every run (some
	// merges legitimately leave the probed row's top-k unchanged).
	venues := make([]string, 0, len(rowsOf))
	for v := range rowsOf {
		venues = append(venues, v)
	}
	sort.Strings(venues)
	var v1, v2 string
	byCanon := map[string][]string{}
	canons := []string{}
	for _, v := range venues {
		c := d.Truth.CanonicalValue("Venue", v)
		if len(byCanon[c]) == 0 {
			canons = append(canons, c)
		}
		byCanon[c] = append(byCanon[c], v)
	}
	sort.Strings(canons)
	for _, c := range canons {
		vars := byCanon[c]
		for i := 0; i < len(vars) && v1 == ""; i++ {
			for j := i + 1; j < len(vars); j++ {
				if stringsim.Jaccard(vars[i], vars[j]) < 1 {
					v1, v2 = vars[i], vars[j]
					break
				}
			}
		}
		if v1 != "" {
			break
		}
	}
	if v1 == "" {
		t.Fatal("seed 7 has no co-occurring synonym variants with distinct token sets")
	}

	ix := s.knnIdx()
	accept := func(r int) bool {
		_, ok := s.table.Get(r, s.yCol).Float()
		return ok
	}
	preTok := map[string][]string{}
	preNear := map[string]string{}
	for _, v := range []string{v1, v2} {
		r := rowsOf[v][0]
		preTok[v] = ix.Tokens(r)
		preNear[v] = fmt.Sprint(ix.Nearest(r, imputeK, accept))
	}

	s.applyA("Venue", v1, v2, true)
	s.refreshModel()

	st := s.std["Venue"]
	if st == nil {
		t.Fatal("no Venue standardizer after refresh")
	}
	can := st.Canonical(v1)
	if st.Canonical(v2) != can {
		t.Fatalf("approved pair did not merge: %q vs %q", can, st.Canonical(v2))
	}
	moved := v1
	if can == v1 {
		moved = v2
	}
	if st.Canonical(moved) == moved {
		t.Fatalf("neither variant changed canonical form after merging %q and %q", v1, v2)
	}

	// The maintained index must equal a from-scratch rebuild over the
	// post-merge standardizers, row for row.
	fresh := knn.NewIndexCanon(s.table, s.yCol, s.knnCanon)
	for r := 0; r < s.table.NumRows(); r++ {
		if !reflect.DeepEqual(ix.Tokens(r), fresh.Tokens(r)) {
			t.Fatalf("row %d: maintained tokens diverge from rebuild: %v vs %v",
				r, ix.Tokens(r), fresh.Tokens(r))
		}
	}

	r := rowsOf[moved][0]
	if reflect.DeepEqual(preTok[moved], ix.Tokens(r)) {
		t.Errorf("row %d (%q → %q) kept its pre-merge token set", r, moved, can)
	}
	if post := fmt.Sprint(ix.Nearest(r, imputeK, accept)); post == preNear[moved] {
		t.Errorf("row %d neighbour list unchanged by the A-merge:\n%s", r, post)
	}
}

// TestMedianScoreTrueMedian locks the satellite-3 fix: the median of an
// even-length score list is the mean of the two middle elements, not the
// upper one, and the input is the full detection list, unsorted.
func TestMedianScoreTrueMedian(t *testing.T) {
	mk := func(scores ...float64) []outlier.Detection {
		out := make([]outlier.Detection, len(scores))
		for i, sc := range scores {
			out[i] = outlier.Detection{ID: dataset.TupleID(i), Score: sc}
		}
		return out
	}
	cases := []struct {
		name string
		dets []outlier.Detection
		want float64
	}{
		{"empty", nil, 0},
		{"single", mk(4), 4},
		{"odd", mk(10, 1, 2), 2},
		{"even", mk(10, 2, 1, 3), 2.5}, // old code returned 3
		{"even-pair", mk(8, 2), 5},
	}
	for _, c := range cases {
		if got := medianScore(c.dets); got != c.want {
			t.Errorf("%s: medianScore = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPickOQuestionsGate covers the re-ask gate around the answered set:
// extreme detections (≥20×median) are re-asked without mutating the
// answered map, moderately anomalous answered ones are skipped, and the
// 5×median cut ends the scan.
func TestPickOQuestionsGate(t *testing.T) {
	dets := []outlier.Detection{
		{ID: 1, Value: 5, Score: 100}, // answered, ≥20×med → re-asked
		{ID: 2, Value: 6, Score: 30},  // answered, <20×med → skipped
		{ID: 3, Value: 7, Score: 25},  // fresh, ≥5×med → asked
		{ID: 4, Value: 8, Score: 10},  // <5×med → scan ends
		{ID: 5, Value: 9, Score: 9},
	}
	answered := map[dataset.TupleID]struct{}{1: {}, 2: {}}
	suggest := func(id dataset.TupleID) (impute.Suggestion, bool) {
		return impute.Suggestion{ID: id, Value: 42}, true
	}

	out := pickOQuestions(dets, 4, answered, 10, suggest)

	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 3 {
		t.Fatalf("picked %+v, want IDs [1 3]", out)
	}
	for _, o := range out {
		if !o.HasFix || o.Repair != 42 {
			t.Errorf("ID %d: repair not filled from suggestion: %+v", o.ID, o)
		}
	}
	if len(answered) != 2 {
		t.Errorf("answered map mutated: %v", answered)
	}
	if capped := pickOQuestions(dets, 4, answered, 1, suggest); len(capped) != 1 {
		t.Errorf("maxO=1 returned %d questions", len(capped))
	}
}
