package pipeline

import (
	"testing"

	"visclean/internal/crowd"
	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/oracle"
	"visclean/internal/vql"
)

// newTestSession builds a session over a small generated D1 with a
// perfect oracle and the Q1-style query.
func newTestSession(t testing.TB, selector SelectorKind, seed int64) (*Session, *oracle.Oracle) {
	return newScaledSession(t, selector, seed, 0.004) // ~55 entities
}

func newScaledSession(t testing.TB, selector SelectorKind, seed int64, scale float64) (*Session, *oracle.Oracle) {
	t.Helper()
	d := datagen.D1(datagen.Config{Scale: scale, Seed: seed})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	truthVis, err := q.Execute(d.Truth.Clean)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{
		Selector: selector,
		Seed:     seed,
		TruthVis: truthVis,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, oracle.New(d.Truth, seed)
}

func TestSessionInitialState(t *testing.T) {
	s, _ := newTestSession(t, SelectGSS, 1)
	if s.Iteration() != 0 {
		t.Fatal("fresh session has iterations")
	}
	v, err := s.CurrentVis()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Points) == 0 {
		t.Fatal("initial visualization empty")
	}
	d0, err := s.DistToTruth()
	if err != nil {
		t.Fatal(err)
	}
	if d0 <= 0 {
		t.Fatalf("initial dist to truth = %v; dirty data should be visibly dirty", d0)
	}
}

func TestCleaningReducesDistanceToTruth(t *testing.T) {
	s, user := newTestSession(t, SelectGSS, 2)
	d0, _ := s.DistToTruth()
	reports, err := s.Run(user, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no iterations ran")
	}
	dEnd, _ := s.DistToTruth()
	if dEnd >= d0 {
		t.Fatalf("cleaning did not improve: %v -> %v", d0, dEnd)
	}
	// Substantial improvement expected with a perfect oracle.
	if dEnd > d0*0.8 {
		t.Fatalf("improvement too small: %v -> %v", d0, dEnd)
	}
	for _, r := range reports {
		if r.Questions() == 0 {
			t.Fatalf("iteration %d asked nothing", r.Iteration)
		}
		if r.CQGVertices == 0 || r.CQGVertices > 10 {
			t.Fatalf("iteration %d CQG size %d", r.Iteration, r.CQGVertices)
		}
	}
}

func TestAllSelectorsRun(t *testing.T) {
	for _, sel := range []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB, SelectAlphaBB, SelectRandom, SelectSingle} {
		sel := sel
		t.Run(sel.String(), func(t *testing.T) {
			s, user := newTestSession(t, sel, 3)
			d0, _ := s.DistToTruth()
			reports, err := s.Run(user, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) == 0 {
				t.Fatal("no iterations")
			}
			dEnd, _ := s.DistToTruth()
			if dEnd > d0+1e-9 {
				t.Fatalf("%s made things worse: %v -> %v", sel, d0, dEnd)
			}
			if sel == SelectSingle {
				for _, r := range reports {
					if r.CQGVertices != 0 {
						t.Fatal("single baseline reported a CQG")
					}
				}
			}
		})
	}
}

func TestNoisyOracleStillConverges(t *testing.T) {
	// Exp-3's finding: moderately wrong/incomplete input costs a few
	// extra questions, not convergence. 5% wrong labels and 95%
	// completeness over a larger budget must still land below the
	// initial distance. (At this tiny scale a single wrong merge moves
	// the chart a lot, so the budget is generous — see Table VI, where
	// the paper itself needs 2–4 extra CQGs under noise.)
	// Like Table VI, the assertion is about *reaching* clean quality at
	// some iteration, not about the last iteration being the best — a
	// lying answer near the end can leave the chart momentarily off.
	// The scale is larger than other tests': on a ~55-entity dataset a
	// single wrong merge moves whole bars, while the paper's tolerance
	// claim is about datasets where wrong answers average out.
	s, user := newScaledSession(t, SelectGSS, 4, 0.012)
	user.WrongLabelRate = 0.05
	user.Completeness = 0.95
	d0, _ := s.DistToTruth()
	reports, err := s.Run(user, 20)
	if err != nil {
		t.Fatal(err)
	}
	best := d0
	for _, r := range reports {
		if r.DistToTruth < best {
			best = r.DistToTruth
		}
	}
	if best > d0*0.7 {
		t.Fatalf("noisy run never reached clean quality: best %v vs initial %v", best, d0)
	}
	dEnd, _ := s.DistToTruth()
	if dEnd > d0*2 {
		t.Fatalf("noisy run ended catastrophically worse: %v -> %v", d0, dEnd)
	}
}

func TestIncompleteAnswersCounted(t *testing.T) {
	s, user := newTestSession(t, SelectGSS, 5)
	user.Completeness = 0.5
	reports, err := s.Run(user, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range reports {
		total += r.Unanswered
	}
	if total == 0 {
		t.Fatal("no unanswered questions recorded at 50% completeness")
	}
}

func TestSessionDoesNotMutateInput(t *testing.T) {
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 6})
	before := d.Dirty.String()
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(oracle.New(d.Truth, 6), 3); err != nil {
		t.Fatal(err)
	}
	if d.Dirty.String() != before {
		t.Fatal("session mutated the caller's table")
	}
}

func TestExhaustionStopsRun(t *testing.T) {
	// A tiny clean table has nothing to ask.
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "V", Kind: dataset.String},
		{Name: "Y", Kind: dataset.Float},
	})
	tbl.MustAppend([]dataset.Value{dataset.Str("a"), dataset.Num(1)})
	tbl.MustAppend([]dataset.Value{dataset.Str("b"), dataset.Num(2)})
	q := vql.MustParse(`VISUALIZE bar SELECT V, SUM(Y) FROM t TRANSFORM GROUP BY V`)
	s, err := NewSession(tbl, q, nil, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth := &oracle.GroundTruth{
		Entity: map[dataset.TupleID]int{0: 0, 1: 1},
		TrueY:  map[string]map[dataset.TupleID]float64{"Y": {0: 1, 1: 2}},
	}
	reports, err := s.Run(oracle.New(truth, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) > 1 {
		t.Fatalf("clean table ran %d iterations", len(reports))
	}
}

func TestTimingsPopulated(t *testing.T) {
	s, user := newTestSession(t, SelectGSS, 7)
	rep, err := s.RunIteration(user)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timings.Total() <= 0 {
		t.Fatal("no timings recorded")
	}
	if rep.Timings.Benefit <= 0 || rep.Timings.Train <= 0 {
		t.Fatalf("component timings missing: %+v", rep.Timings)
	}
}

func TestQ7StylePredicateCleaning(t *testing.T) {
	// Q7-style query: the WHERE Venue = SIGMOD predicate initially drops
	// synonym rows; A-question cleaning must recover them.
	d := datagen.D1(datagen.Config{Scale: 0.008, Seed: 8})
	q := vql.MustParse(`VISUALIZE bar SELECT Year, COUNT(Year) FROM D1 TRANSFORM BIN Year BY INTERVAL 5 WHERE Venue = 'SIGMOD'`)
	truthVis, err := q.Execute(d.Truth.Clean)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: 8, TruthVis: truthVis, Dist: distance.EMD})
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := s.DistToTruth()
	if _, err := s.Run(oracle.New(d.Truth, 8), 10); err != nil {
		t.Fatal(err)
	}
	dEnd, _ := s.DistToTruth()
	if dEnd > d0 {
		t.Fatalf("predicate cleaning regressed: %v -> %v", d0, dEnd)
	}
}

func TestCrowdPanelDrivesSession(t *testing.T) {
	// A crowd of imperfect workers with 3-vote majority aggregation must
	// clean nearly as well as a single perfect expert.
	d := datagen.D1(datagen.Config{Scale: 0.008, Seed: 13})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	truthVis, err := q.Execute(d.Truth.Clean)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: 13, TruthVis: truthVis})
	if err != nil {
		t.Fatal(err)
	}
	panel := crowd.NewPanel(d.Truth, 9, 0.85, 0.95, 13)
	d0, _ := s.DistToTruth()
	if _, err := s.Run(panel, 12); err != nil {
		t.Fatal(err)
	}
	dEnd, _ := s.DistToTruth()
	if dEnd >= d0 {
		t.Fatalf("crowd-driven run did not improve: %v -> %v", d0, dEnd)
	}
}
