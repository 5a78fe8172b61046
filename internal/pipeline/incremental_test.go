package pipeline

// The incremental-pricing equivalence suite. The delta pricer's contract
// is that it is a pure optimization: for every hypothesis it either
// returns the exact float the full rebuild path would (bit-identical,
// not approximately equal), or declines so the estimator falls back.
// These tests enforce the contract end-to-end: whole sessions with the
// pricer on vs off must produce byte-identical traces across selectors,
// seeds, and worker counts. The per-hypothesis half of the suite
// (every priced hypothesis, both ways, over five workloads at advancing
// session states) is TestIncrementalPricingBitIdentical in
// pricing_test.go. scripts/check.sh runs both under -race alongside the
// determinism suite.

import (
	"encoding/json"
	"fmt"
	"testing"

	"visclean/internal/oracle"
)

// runIncSession is runDetSession with the incremental pricer toggled.
func runIncSession(t testing.TB, selector SelectorKind, seed int64, workers int, noInc bool) detTrace {
	t.Helper()
	s, user := newIncSession(t, selector, seed, workers, noInc)
	var tr detTrace
	for i := 0; i < 4; i++ {
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

func newIncSession(t testing.TB, selector SelectorKind, seed int64, workers int, noInc bool) (*Session, *oracle.Oracle) {
	t.Helper()
	s, user := newDetSession(t, selector, seed, workers)
	s.cfg.NoIncremental = noInc
	return s, user
}

// TestIncrementalFullSessionEquivalence runs whole sessions with the
// pricer on vs off — across GSS, GSS+ and B&B, two seeds, and worker
// counts 1 and 8 — and asserts byte-identical answer logs, CQG vertex
// sets, benefits and final charts.
func TestIncrementalFullSessionEquivalence(t *testing.T) {
	for _, sel := range []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB} {
		for _, seed := range []int64{7, 13} {
			sel, seed := sel, seed
			t.Run(fmt.Sprintf("%s/seed%d", sel, seed), func(t *testing.T) {
				t.Parallel()
				full := runIncSession(t, sel, seed, 1, true)
				inc := runIncSession(t, sel, seed, 1, false)
				assertTracesEqual(t, fmt.Sprintf("%s seed %d incremental vs full", sel, seed), full, inc)
				incPar := runIncSession(t, sel, seed, 8, false)
				assertTracesEqual(t, fmt.Sprintf("%s seed %d incremental workers 8 vs full workers 1", sel, seed), full, incPar)
			})
		}
	}
}

// TestIncrementalSingleBaseline covers the Single baseline's sequential
// estimator, which wires the pricer through a separate code path.
func TestIncrementalSingleBaseline(t *testing.T) {
	full := runIncSession(t, SelectSingle, 7, 1, true)
	inc := runIncSession(t, SelectSingle, 7, 1, false)
	assertTracesEqual(t, "Single incremental vs full", full, inc)
}
