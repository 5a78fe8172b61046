package pipeline

// Test-only access to pipeline internals for the external test package
// (pipeline_test), whose tests import packages that import pipeline.

import (
	"fmt"
	"math"

	"visclean/internal/benefit"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/vis"
)

// PriceEveryHypothesis prices every hypothesis of the session's current
// ERG twice, through the delta pricer and through the full rebuild the
// estimator falls back to, and reports how many the pricer accepted and
// declined. err names the first accepted price whose bits differ from
// the full path's. Session state is left as it was.
func PriceEveryHypothesis(s *Session) (priced, declined int, err error) {
	bases, err := s.CurrentVisAll()
	if err != nil {
		return 0, 0, err
	}
	g := s.buildERG(s.detectQuestions())
	s.freezeShared()
	p := s.newDeltaPricer()
	if p == nil {
		return 0, 0, fmt.Errorf("newDeltaPricer returned nil for executable queries")
	}
	for _, h := range collectHypotheses(g) {
		full := fullPrice(s, h, bases)
		inc, ok := p.price(h)
		if !ok {
			declined++
			continue
		}
		priced++
		if math.Float64bits(inc) != math.Float64bits(full) {
			return priced, declined, fmt.Errorf("%v %+v: incremental %v != full %v", h.Kind, h, inc, full)
		}
	}
	return priced, declined, nil
}

// fullPrice is the estimator's full-rebuild price of one hypothesis:
// the primary view's distance, or the registration-ordered weighted sum
// over every view.
func fullPrice(s *Session, h benefit.Hypothesis, bases []*vis.Data) float64 {
	if len(s.queries) == 1 {
		after := s.hypotheticalVis(h)
		if after == nil {
			return 0
		}
		return s.cfg.Dist(bases[0], after)
	}
	charts := s.hypotheticalVisAll(h)
	total := 0.0
	for v, d := range charts {
		if d != nil {
			total += s.viewWeights[v] * s.cfg.Dist(bases[v], d)
		}
	}
	return total
}

// collectHypotheses enumerates every hypothesis the estimator would
// price for the graph, in annotation order.
func collectHypotheses(g *erg.Graph) []benefit.Hypothesis {
	var hs []benefit.Hypothesis
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.HasT {
			pair := em.MakePair(e.A, e.B)
			hs = append(hs,
				benefit.Hypothesis{Kind: benefit.TConfirm, Pair: pair},
				benefit.Hypothesis{Kind: benefit.TSplit, Pair: pair})
		}
		if e.HasA {
			hs = append(hs, benefit.Hypothesis{Kind: benefit.AApprove, Column: e.ACol, V1: e.AV1, V2: e.AV2})
		}
	}
	for _, r := range g.Repairs() {
		kind := benefit.ORepair
		if r.Kind == erg.Missing {
			kind = benefit.MImpute
		}
		hs = append(hs, benefit.Hypothesis{Kind: kind, ID: r.ID, Value: r.Suggested})
	}
	return hs
}
