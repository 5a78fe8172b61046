package pipeline

// The committed-relation suite: every chart and distance the session
// serves from its committed relation must equal, bit for bit, the query
// executed over a from-scratch CleanedView — after every way session
// state can change.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/oracle"
	"visclean/internal/vis"
	"visclean/internal/vql"
)

// chartBits renders a chart with every float as its bit pattern, so two
// renderings are equal only when the charts are identical to the bit.
func chartBits(d *vis.Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%s|%s|", d.Type, d.XField, d.YField)
	for _, p := range d.Points {
		fmt.Fprintf(&b, "%q:%t:%016x:%016x;", p.Label, p.HasX, math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	return b.String()
}

// assertCommittedFresh checks CurrentVisAll, every CurrentVisView and
// DistToTruth against each view's query executed over CleanedView.
func assertCommittedFresh(t *testing.T, s *Session, when string) {
	t.Helper()
	view := s.CleanedView()
	want := make([]string, s.NumViews())
	var primary *vis.Data
	for v, q := range s.ViewQueries() {
		d, err := q.Execute(view)
		if err != nil {
			t.Fatalf("%s: reference view %d: %v", when, v, err)
		}
		if v == 0 {
			primary = d
		}
		want[v] = chartBits(d)
	}
	all, err := s.CurrentVisAll()
	if err != nil {
		t.Fatalf("%s: CurrentVisAll: %v", when, err)
	}
	if len(all) != len(want) {
		t.Fatalf("%s: CurrentVisAll returned %d charts, want %d", when, len(all), len(want))
	}
	for v := range want {
		if got := chartBits(all[v]); got != want[v] {
			t.Fatalf("%s: CurrentVisAll view %d:\n%s\nwant\n%s", when, v, got, want[v])
		}
		one, err := s.CurrentVisView(v)
		if err != nil {
			t.Fatalf("%s: CurrentVisView(%d): %v", when, v, err)
		}
		if got := chartBits(one); got != want[v] {
			t.Fatalf("%s: CurrentVisView(%d):\n%s\nwant\n%s", when, v, got, want[v])
		}
	}
	dist, err := s.DistToTruth()
	if err != nil {
		t.Fatalf("%s: DistToTruth: %v", when, err)
	}
	if wantDist := s.cfg.Dist(primary, s.cfg.TruthVis); math.Float64bits(dist) != math.Float64bits(wantDist) {
		t.Fatalf("%s: DistToTruth %v, want %v", when, dist, wantDist)
	}
}

// cancelAfter answers from the oracle and cancels the iteration's
// context right after its first answer of one kind: the iteration stops
// with that answer applied and the rest of the CQG unasked. M and O
// answers are a value far outside the data, so that applying one moves
// its bar even where the true value would leave the chart as it was.
type cancelAfter struct {
	*oracle.Oracle
	kind   string
	cancel context.CancelFunc
	fired  bool
}

const loudValue = 1e6

func (u *cancelAfter) answered(kind string) {
	if kind == u.kind && !u.fired {
		u.fired = true
		u.cancel()
	}
}

func (u *cancelAfter) AnswerT(a, b dataset.TupleID) (bool, bool) {
	match, ok := u.Oracle.AnswerT(a, b)
	if ok {
		u.answered(AnswerKindT)
	}
	return match, ok
}

func (u *cancelAfter) AnswerA(column, v1, v2 string) (bool, bool) {
	same, ok := u.Oracle.AnswerA(column, v1, v2)
	if ok {
		u.answered(AnswerKindA)
	}
	return same, ok
}

func (u *cancelAfter) AnswerM(string, dataset.TupleID) (float64, bool) {
	u.answered(AnswerKindM)
	return loudValue, true
}

func (u *cancelAfter) AnswerO(string, dataset.TupleID, float64) (bool, float64, bool) {
	u.answered(AnswerKindO)
	return true, loudValue, true
}

// referenceBits renders view 0's chart derived from scratch.
func referenceBits(t *testing.T, s *Session) string {
	t.Helper()
	d, err := s.queries[0].Execute(s.CleanedView())
	if err != nil {
		t.Fatal(err)
	}
	return chartBits(d)
}

// TestCommittedRelationTracksState drives a session through every kind
// of state change — iterations cancelled with a partial T, A, M or O
// answer applied, completed iterations, an AddView that registers a new
// A-column, and Replay into a fresh session — and checks the served
// charts and distance against the from-scratch reference after each.
func TestCommittedRelationTracksState(t *testing.T) {
	for _, kind := range []string{AnswerKindT, AnswerKindA, AnswerKindM, AnswerKindO} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			s, user := newTestSession(t, SelectGSS, 1)
			assertCommittedFresh(t, s, "fresh session")

			// Iterate until an iteration is cancelled with a partial answer
			// of this kind applied. T and A answers reach the cleaned view
			// only at the next model refresh; an M or O answer must have
			// moved the chart already, or the check could not tell a stale
			// relation from a fresh one.
			for iter := 1; ; iter++ {
				if iter > 8 {
					t.Fatalf("no chart-moving partial %s answer within 8 iterations", kind)
				}
				before := referenceBits(t, s)
				ctx, cancel := context.WithCancel(context.Background())
				u := &cancelAfter{Oracle: user, kind: kind, cancel: cancel}
				_, err := s.RunIterationCtx(ctx, u)
				cancel()
				if err == nil {
					// No answer of this kind, or it was the CQG's last
					// question: the iteration completed.
					assertCommittedFresh(t, s, fmt.Sprintf("after iteration %d", iter))
					continue
				}
				if !u.fired || !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				assertCommittedFresh(t, s, "after an iteration cancelled with a partial "+kind+" answer")
				if kind == AnswerKindT || kind == AnswerKindA || referenceBits(t, s) != before {
					break
				}
			}
			if _, err := s.RunIteration(user); err != nil {
				t.Fatal(err)
			}
			assertCommittedFresh(t, s, "after the iteration folding the partial answers")

			aCols := len(s.aColumns)
			if _, err := s.AddView(vql.MustParse(mvSecondQuery)); err != nil {
				t.Fatal(err)
			}
			if len(s.aColumns) == aCols {
				t.Fatal("AddView registered no new A-column")
			}
			assertCommittedFresh(t, s, "after AddView")
			if _, err := s.RunIteration(user); err != nil {
				t.Fatal(err)
			}
			assertCommittedFresh(t, s, "after an iteration with the added view")

			restored, _ := newTestSession(t, SelectGSS, 1)
			if err := restored.Replay(s.History()); err != nil {
				t.Fatal(err)
			}
			assertCommittedFresh(t, restored, "after Replay")
			live, _ := s.CurrentVisAll()
			back, _ := restored.CurrentVisAll()
			for v := range live {
				if chartBits(live[v]) != chartBits(back[v]) {
					t.Fatalf("replayed view %d differs from the live session's", v)
				}
			}
		})
	}
}

// TestCurrentVisAllSliceIsCallers: the slice CurrentVisAll returns
// belongs to the caller — overwriting or appending to it must not change
// what the next call returns.
func TestCurrentVisAllSliceIsCallers(t *testing.T) {
	s, _ := newMultiViewSession(t, 7, 1, mvSecondQuery)
	first, err := s.CurrentVisAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{chartBits(first[0]), chartBits(first[1])}
	first[0] = nil
	_ = append(first[:1], &vis.Data{})
	again, err := s.CurrentVisAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0] == nil || chartBits(again[0]) != want[0] || chartBits(again[1]) != want[1] {
		t.Fatal("mutating a returned slice changed the next CurrentVisAll")
	}
}

// TestCurrentVisViewOutOfRange: a view index outside [0, NumViews())
// is an error, not a panic — in the pristine state and after input.
func TestCurrentVisViewOutOfRange(t *testing.T) {
	s, user := newMultiViewSession(t, 7, 1, mvSecondQuery)
	for _, stage := range []string{"pristine", "after an iteration"} {
		for _, v := range []int{-1, s.NumViews(), s.NumViews() + 5} {
			if d, err := s.CurrentVisView(v); err == nil || d != nil {
				t.Fatalf("%s: CurrentVisView(%d) = %v, %v; want an error", stage, v, d, err)
			}
		}
		if _, err := s.RunIteration(user); err != nil {
			t.Fatal(err)
		}
	}
}
