package pipeline

// The incremental-pricing equivalence suite. The delta pricer's contract
// is that it is a pure optimization: for every hypothesis it returns the
// exact float the full hypothetical rebuild would (bit-identical, not
// approximately equal); the rebuild lives in export_test.go as the
// reference. These tests hold the pricer to it at every state whole
// sessions reach, across selectors and seeds: before each iteration,
// PriceEveryHypothesis prices every hypothesis of the session's current
// ERG both ways. TestIncrementalPricingBitIdentical in pricing_test.go
// does the same over five workloads. Worker-count invariance is the
// determinism suite's job. scripts/check.sh runs these under -race
// alongside it.

import (
	"fmt"
	"math"
	"testing"

	"visclean/internal/benefit"
)

// checkPricingAlongSession runs a seeded session for up to four
// iterations and, before each, requires every hypothesis to carry the
// full rebuild's exact bits.
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
		t.Fatalf("%s seed %d: no hypotheses priced", selector, seed)
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

// TestPricerInapplicablePricesZero: a repair of an unknown tuple and an
// approval in a column with no standardizer change nothing, so the
// pricer prices them 0, as the reference does when it finds them
// inapplicable.
func TestPricerInapplicablePricesZero(t *testing.T) {
	s, _ := newDetSession(t, SelectGSS, 7, 1)
	bases, err := s.CurrentVisAll()
	if err != nil {
		t.Fatal(err)
	}
	s.freezeShared()
	p, err := s.newDeltaPricer()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []benefit.Hypothesis{
		{Kind: benefit.MImpute, ID: 1 << 30, Value: 3},
		{Kind: benefit.ORepair, ID: -1, Value: 3},
		{Kind: benefit.AApprove, Column: "Title", V1: "a", V2: "b"},
		{Kind: benefit.AApprove, Column: "NoSuchColumn", V1: "a", V2: "b"},
	} {
		if s.hypotheticalVis(h) != nil {
			t.Fatalf("%+v: the reference finds it applicable", h)
		}
		got, want := p.price(h), fullPrice(s, h, bases)
		if math.Float64bits(got) != 0 || math.Float64bits(want) != 0 {
			t.Errorf("%+v: priced %v, reference %v; want 0", h, got, want)
		}
	}
}
