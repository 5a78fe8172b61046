package pipeline

// The incremental-pricing equivalence suite. The delta pricer's contract
// is that it is a pure optimization: for every hypothesis it either
// returns the exact float the full rebuild path would (bit-identical,
// not approximately equal), or declines so the estimator falls back.
// These tests hold the pricer to the full rebuild at every state whole
// sessions reach, across selectors and seeds: before each iteration,
// PriceEveryHypothesis prices every hypothesis of the session's current
// ERG both ways. TestIncrementalPricingBitIdentical in pricing_test.go
// does the same over five workloads. Worker-count invariance is the
// determinism suite's job. scripts/check.sh runs these under -race
// alongside it.

import (
	"fmt"
	"testing"
)

// checkPricingAlongSession runs a seeded session for up to four
// iterations and, before each, requires every hypothesis the pricer
// accepts to carry the full rebuild's exact bits.
func checkPricingAlongSession(t *testing.T, selector SelectorKind, seed int64) {
	t.Helper()
	s, user := newDetSession(t, selector, seed, 1)
	priced := 0
	for i := 0; i < 4; i++ {
		c, err := PriceEveryHypothesis(s)
		if err != nil {
			t.Fatalf("%s seed %d iteration %d: %v", selector, seed, i+1, err)
		}
		priced += c.Priced
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
	}
	if priced == 0 {
		t.Fatalf("%s seed %d: the delta pricer accepted no hypotheses", selector, seed)
	}
}

// TestIncrementalFullSessionEquivalence holds the pricer to the full
// rebuild along whole GSS, GSS+ and B&B sessions at two seeds.
func TestIncrementalFullSessionEquivalence(t *testing.T) {
	for _, sel := range []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB} {
		for _, seed := range []int64{7, 13} {
			sel, seed := sel, seed
			t.Run(fmt.Sprintf("%s/seed%d", sel, seed), func(t *testing.T) {
				t.Parallel()
				checkPricingAlongSession(t, sel, seed)
			})
		}
	}
}

// TestIncrementalSingleBaseline does the same along the Single
// baseline's session, whose trajectory differs from every CQG
// selector's.
func TestIncrementalSingleBaseline(t *testing.T) {
	checkPricingAlongSession(t, SelectSingle, 7)
}
