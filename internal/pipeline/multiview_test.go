package pipeline

// The multi-view determinism suite. The contracts: (1) a 2-view session
// is bit-identical across worker counts — the cross-view sum runs in
// registration order regardless of scheduling; (2) replaying a
// history that includes a mid-session AddView restores every panel
// byte-for-byte (the kill/restart path); (3) the N=1 fence — the
// multi-view machinery degenerates to exactly the historical single-view
// arithmetic, demonstrated by a duplicate-view session whose benefits
// are the single-view benefits exactly doubled and whose trajectory is
// unchanged.

import (
	"encoding/json"
	"fmt"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/oracle"
	"visclean/internal/vql"
)

const (
	mvPrimaryQuery = `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`
	mvSecondQuery  = `VISUALIZE bar SELECT Affiliation, AVG(Citations) FROM D1 TRANSFORM GROUP BY Affiliation SORT Y BY DESC LIMIT 8`
	mvThirdQuery   = `VISUALIZE bar SELECT Year, SUM(Citations) FROM D1 TRANSFORM BIN Year BY INTERVAL 1`
)

// newMultiViewSession builds a session over D1 with the given extra
// views beyond the primary query.
func newMultiViewSession(t testing.TB, seed int64, workers int, extra ...string) (*Session, *oracle.Oracle) {
	t.Helper()
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: seed})
	q := vql.MustParse(mvPrimaryQuery)
	var views []*vql.Query
	for _, src := range extra {
		views = append(views, vql.MustParse(src))
	}
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{
		Selector: SelectGSS,
		Seed:     seed,
		Workers:  workers,
		Queries:  views,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, oracle.New(d.Truth, seed)
}

// mvTrace captures everything observable about a multi-view run,
// including every view's chart after every iteration.
type mvTrace struct {
	History  []byte
	Benefits []float64
	Charts   []string // per iteration: all views' charts, rendered
	Final    string   // final CurrentVisAll rendering
}

func renderAll(t testing.TB, s *Session) string {
	t.Helper()
	all, err := s.CurrentVisAll()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", all)
}

func runMultiViewSession(t testing.TB, seed int64, workers int, iters int, extra ...string) mvTrace {
	t.Helper()
	s, user := newMultiViewSession(t, seed, workers, extra...)
	var tr mvTrace
	for i := 0; i < iters; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		if len(rep.ViewCharts) != s.NumViews() || len(rep.ViewDistMoved) != s.NumViews() {
			t.Fatalf("iteration %d: report carries %d charts / %d dists for %d views",
				i+1, len(rep.ViewCharts), len(rep.ViewDistMoved), s.NumViews())
		}
		if rep.ViewDistMoved[0] != rep.DistMoved {
			t.Fatalf("iteration %d: ViewDistMoved[0] %v != DistMoved %v", i+1, rep.ViewDistMoved[0], rep.DistMoved)
		}
		tr.Benefits = append(tr.Benefits, rep.EstimatedBenefit)
		tr.Charts = append(tr.Charts, fmt.Sprintf("%+v", rep.ViewCharts))
	}
	h, err := json.Marshal(s.History())
	if err != nil {
		t.Fatal(err)
	}
	tr.History = h
	tr.Final = renderAll(t, s)
	return tr
}

// TestMultiViewWorkersBitIdentical: a 2-view session at Workers 1 and 8
// must agree on every byte — answer log, modeled benefits, and every
// view's chart after every iteration.
func TestMultiViewWorkersBitIdentical(t *testing.T) {
	seq := runMultiViewSession(t, 7, 1, 4, mvSecondQuery)
	par := runMultiViewSession(t, 7, 8, 4, mvSecondQuery)
	if string(seq.History) != string(par.History) {
		t.Errorf("answer logs differ:\n%s\nvs\n%s", seq.History, par.History)
	}
	if len(seq.Benefits) != len(par.Benefits) {
		t.Fatalf("iteration counts differ: %d vs %d", len(seq.Benefits), len(par.Benefits))
	}
	for i := range seq.Benefits {
		if seq.Benefits[i] != par.Benefits[i] {
			t.Errorf("iteration %d benefit differs: %v vs %v", i+1, seq.Benefits[i], par.Benefits[i])
		}
		if seq.Charts[i] != par.Charts[i] {
			t.Errorf("iteration %d view charts differ:\n%s\nvs\n%s", i+1, seq.Charts[i], par.Charts[i])
		}
	}
	if seq.Final != par.Final {
		t.Errorf("final view charts differ:\n%s\nvs\n%s", seq.Final, par.Final)
	}
}

// TestMultiViewSessionsDiverge is the sanity inverse: adding a second
// view must actually change which questions the session asks (otherwise
// the aggregation tests above pass vacuously). Divergence is checked
// over several seeds — on any single seed the top CQG can legitimately
// coincide.
func TestMultiViewSessionsDiverge(t *testing.T) {
	diverged := false
	for _, seed := range []int64{7, 11, 13, 19} {
		mono := runMultiViewSession(t, seed, 1, 4)
		multi := runMultiViewSession(t, seed, 1, 4, mvSecondQuery)
		if string(mono.History) != string(multi.History) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("2-view sessions asked identical questions as single-view on every seed; cross-view aggregation is not wired through")
	}
}

// TestMultiViewReplayRestoresViews is the kill/restart fence: a session
// that starts with two views and adds a third mid-session must be fully
// reproducible from its answer log alone — including the view set, the
// A-column extension the added view caused, and every panel's chart.
func TestMultiViewReplayRestoresViews(t *testing.T) {
	s, user := newMultiViewSession(t, 7, 1, mvThirdQuery)
	if _, err := s.RunIteration(user); err != nil {
		t.Fatal(err)
	}
	v, err := s.AddView(vql.MustParse(mvSecondQuery))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("AddView returned index %d, want 2", v)
	}
	for i := 0; i < 2; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.ViewCharts) != 3 {
			t.Fatalf("post-AddView iteration reports %d view charts, want 3", len(rep.ViewCharts))
		}
	}

	restored, _ := newMultiViewSession(t, 7, 1, mvThirdQuery)
	if err := restored.Replay(s.History()); err != nil {
		t.Fatal(err)
	}
	if restored.NumViews() != s.NumViews() {
		t.Fatalf("replay restored %d views, want %d", restored.NumViews(), s.NumViews())
	}
	for i, q := range s.ViewQueries() {
		if restored.ViewQueries()[i].String() != q.String() {
			t.Errorf("view %d query differs after replay: %q vs %q", i, restored.ViewQueries()[i], q)
		}
	}
	if got, want := renderAll(t, restored), renderAll(t, s); got != want {
		t.Errorf("replayed view charts differ:\n%s\nvs\n%s", got, want)
	}
	a, _ := json.Marshal(s.History())
	b, _ := json.Marshal(restored.History())
	if string(a) != string(b) {
		t.Errorf("replayed history not snapshot-complete:\n%s\nvs\n%s", b, a)
	}

	// The restored session must continue identically, not just look
	// identical: one more iteration against fresh same-seed oracles.
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 7})
	repA, err := s.RunIteration(oracle.New(d.Truth, 7))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := restored.RunIteration(oracle.New(d.Truth, 7))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", repA.ViewCharts) != fmt.Sprintf("%+v", repB.ViewCharts) {
		t.Error("live and replayed sessions diverged on the iteration after restore")
	}
}

// TestMultiViewDuplicateViewFence is the N=1 regression fence, stated
// as exact arithmetic: registering the primary query twice doubles every
// hypothesis price (d + d, exact in IEEE 754), which preserves every
// benefit comparison bit-for-bit — so the session must ask the same
// questions, log the same answers and draw the same view-0 trajectory
// as the single-view session, while reporting exactly doubled benefits.
// Any rounding introduced by the multi-view sum would break this.
func TestMultiViewDuplicateViewFence(t *testing.T) {
	mono := runMultiViewSession(t, 7, 1, 4)
	dup := runMultiViewSession(t, 7, 1, 4, mvPrimaryQuery)
	if string(mono.History) != string(dup.History) {
		t.Errorf("duplicate-view session asked different questions:\n%s\nvs\n%s", mono.History, dup.History)
	}
	if len(mono.Benefits) != len(dup.Benefits) {
		t.Fatalf("iteration counts differ: %d vs %d", len(mono.Benefits), len(dup.Benefits))
	}
	for i := range mono.Benefits {
		if 2*mono.Benefits[i] != dup.Benefits[i] {
			t.Errorf("iteration %d: duplicate-view benefit %v != 2 × single-view %v",
				i+1, dup.Benefits[i], mono.Benefits[i])
		}
	}
}

// TestAddViewValidation pins the registration contract: mismatched
// measure columns and unknown columns are rejected without mutating the
// session, and a session remains usable after a rejected AddView.
func TestAddViewValidation(t *testing.T) {
	s, user := newMultiViewSession(t, 7, 1)
	if _, err := s.AddView(vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Year) FROM D1 TRANSFORM GROUP BY Venue`)); err == nil {
		t.Error("AddView accepted a view with a different measure column")
	}
	if _, err := s.AddView(vql.MustParse(`VISUALIZE bar SELECT Nope, SUM(Citations) FROM D1 TRANSFORM GROUP BY Nope`)); err == nil {
		t.Error("AddView accepted a view over an unknown column")
	}
	if s.NumViews() != 1 {
		t.Fatalf("rejected AddViews left %d views registered, want 1", s.NumViews())
	}
	if h := s.History(); h.NumAnswers() != 0 {
		t.Fatalf("rejected AddViews logged %d answers, want 0", h.NumAnswers())
	}
	if _, err := s.RunIteration(user); err != nil {
		t.Fatal(err)
	}
}

// TestCurrentVisAllMatchesCurrentVis: on a single-view session the two
// accessors must produce bit-identical charts in every session state
// (pristine artifact-served and post-answer rebuilt).
func TestCurrentVisAllMatchesCurrentVis(t *testing.T) {
	s, user := newMultiViewSession(t, 7, 1)
	for i := 0; i < 3; i++ {
		one, err := s.CurrentVis()
		if err != nil {
			t.Fatal(err)
		}
		all, err := s.CurrentVisAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 1 || fmt.Sprintf("%+v", all[0]) != fmt.Sprintf("%+v", one) {
			t.Fatalf("iteration %d: CurrentVisAll %+v != CurrentVis %+v", i, all, one)
		}
		if _, err := s.RunIteration(user); err != nil {
			t.Fatal(err)
		}
	}
}
