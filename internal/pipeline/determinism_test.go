package pipeline

// The determinism suite. The guarantee that checkpoint/restore (the
// service layer) and the experiment harness depend on is that a session
// is a pure function of (table, query, Config): same seed, same answer
// log, same selected CQGs, same reported benefits — and that the
// Workers knob changes wall-clock time only, never a single byte of the
// outcome. scripts/check.sh runs this file under -race, which is what
// validates the parallel benefit engine's synchronization.

import (
	"encoding/json"
	"fmt"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/oracle"
	"visclean/internal/vql"
)

// detTrace captures everything observable about one session run.
type detTrace struct {
	History   []byte // JSON-encoded answer log
	CQGs      [][]dataset.TupleID
	Benefits  []float64
	Evals     []int
	Questions []int
	FinalVis  string
}

// runDetSession executes a fresh seeded session for a fixed budget and
// returns its trace.
func runDetSession(t testing.TB, selector SelectorKind, seed int64, workers int) detTrace {
	t.Helper()
	s, user := newDetSession(t, selector, seed, workers)
	var tr detTrace
	for i := 0; i < 5; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		tr.CQGs = append(tr.CQGs, rep.CQGMembers)
		tr.Benefits = append(tr.Benefits, rep.EstimatedBenefit)
		tr.Evals = append(tr.Evals, rep.BenefitEvals)
		tr.Questions = append(tr.Questions, rep.Questions())
	}
	h, err := json.Marshal(s.History())
	if err != nil {
		t.Fatal(err)
	}
	tr.History = h
	if v, err := s.CurrentVis(); err == nil {
		tr.FinalVis = fmt.Sprintf("%+v", v)
	}
	return tr
}

// newDetSession mirrors newScaledSession but threads the Workers knob.
func newDetSession(t testing.TB, selector SelectorKind, seed int64, workers int) (*Session, *oracle.Oracle) {
	t.Helper()
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: seed})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	truthVis, err := q.Execute(d.Truth.Clean)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{
		Selector: selector,
		Seed:     seed,
		TruthVis: truthVis,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, oracle.New(d.Truth, seed)
}

func assertTracesEqual(t *testing.T, label string, a, b detTrace) {
	t.Helper()
	if string(a.History) != string(b.History) {
		t.Errorf("%s: answer logs differ:\n%s\nvs\n%s", label, a.History, b.History)
	}
	if len(a.CQGs) != len(b.CQGs) {
		t.Fatalf("%s: iteration counts differ: %d vs %d", label, len(a.CQGs), len(b.CQGs))
	}
	for i := range a.CQGs {
		if fmt.Sprint(a.CQGs[i]) != fmt.Sprint(b.CQGs[i]) {
			t.Errorf("%s: iteration %d CQG differs: %v vs %v", label, i+1, a.CQGs[i], b.CQGs[i])
		}
		// Bit-identical, not approximately equal: the parallel reduction
		// must not reorder a single float addition.
		if a.Benefits[i] != b.Benefits[i] {
			t.Errorf("%s: iteration %d benefit differs: %v vs %v", label, i+1, a.Benefits[i], b.Benefits[i])
		}
		if a.Evals[i] != b.Evals[i] {
			t.Errorf("%s: iteration %d eval count differs: %d vs %d", label, i+1, a.Evals[i], b.Evals[i])
		}
		if a.Questions[i] != b.Questions[i] {
			t.Errorf("%s: iteration %d question count differs: %d vs %d", label, i+1, a.Questions[i], b.Questions[i])
		}
	}
	if a.FinalVis != b.FinalVis {
		t.Errorf("%s: final visualizations differ:\n%s\nvs\n%s", label, a.FinalVis, b.FinalVis)
	}
}

var detSelectors = []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB, SelectRandom, SelectSingle}

// TestDeterminismSameSeedSameSession runs every selector twice with the
// same seed and asserts byte-identical traces. This is the regression
// gate for the map-iteration-order bugs: gss() partial-set evaluation
// order and erg.SubgraphBenefit summation order.
func TestDeterminismSameSeedSameSession(t *testing.T) {
	for _, sel := range detSelectors {
		sel := sel
		t.Run(sel.String(), func(t *testing.T) {
			t.Parallel()
			a := runDetSession(t, sel, 7, 1)
			b := runDetSession(t, sel, 7, 1)
			assertTracesEqual(t, sel.String(), a, b)
		})
	}
}

// TestDeterminismAcrossWorkerCounts asserts Workers=1 and Workers=8
// sessions are bit-identical: the index-write reduction and per-tree
// forest seeding must leave no scheduler fingerprint on the outcome.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, sel := range detSelectors {
		sel := sel
		t.Run(sel.String(), func(t *testing.T) {
			t.Parallel()
			seq := runDetSession(t, sel, 11, 1)
			par := runDetSession(t, sel, 11, 8)
			assertTracesEqual(t, sel.String()+" workers 1 vs 8", seq, par)
		})
	}
}

// TestDeterminismDifferentSeedsDiverge is the sanity inverse: sessions
// seeded differently must not replay identically (otherwise the suite
// above would pass vacuously with the seed not wired through at all).
func TestDeterminismDifferentSeedsDiverge(t *testing.T) {
	a := runDetSession(t, SelectRandom, 3, 1)
	b := runDetSession(t, SelectRandom, 4, 1)
	if string(a.History) == string(b.History) && a.FinalVis == b.FinalVis && fmt.Sprint(a.CQGs) == fmt.Sprint(b.CQGs) {
		t.Error("seeds 3 and 4 produced byte-identical sessions; seed is not wired through")
	}
}
