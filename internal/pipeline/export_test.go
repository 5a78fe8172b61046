package pipeline

// Test-only access to pipeline internals for the external test package
// (pipeline_test), whose tests import packages that import pipeline.

import (
	"fmt"
	"math"
	"strings"

	"visclean/internal/benefit"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/vis"
)

// PriceCounts tallies one or more PriceEveryHypothesis passes.
type PriceCounts struct {
	Priced, Declined int
	paths            [numPricePaths]int // accepted prices per pricer path
}

// Add accumulates another pass.
func (c *PriceCounts) Add(o PriceCounts) {
	c.Priced += o.Priced
	c.Declined += o.Declined
	for i, n := range o.paths {
		c.paths[i] += n
	}
}

// SplitInside counts the in-cluster cannot-links priced by replaying
// their cluster alone (DESIGN.md §10, path 4).
func (c PriceCounts) SplitInside() int { return c.paths[pathSplitInside] }

func (c PriceCounts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d hypotheses priced both ways, %d declined; by path:", c.Priced, c.Declined)
	for path, n := range c.paths {
		fmt.Fprintf(&b, " %s %d", pricePath(path), n)
	}
	return b.String()
}

func (p pricePath) String() string {
	return [numPricePaths]string{"cell", "approve", "split-apart", "confirm-inside",
		"confirm-across", "split-inside", "rebuild"}[p]
}

// PriceEveryHypothesis prices every hypothesis of the session's current
// ERG twice, through the delta pricer and through the full rebuild the
// estimator falls back to, and counts the prices the pricer accepted,
// by path, and declined. err names the first accepted price whose bits
// differ from the full path's. Session state is left as it was.
func PriceEveryHypothesis(s *Session) (PriceCounts, error) {
	var c PriceCounts
	bases, err := s.CurrentVisAll()
	if err != nil {
		return c, err
	}
	g := s.buildERG(s.detectQuestions())
	s.freezeShared()
	p := s.newDeltaPricer()
	if p == nil {
		return c, fmt.Errorf("newDeltaPricer returned nil for executable queries")
	}
	for _, h := range collectHypotheses(g) {
		full := fullPrice(s, h, bases)
		inc, path, ok := p.priceVia(h)
		if !ok {
			c.Declined++
			continue
		}
		c.Priced++
		c.paths[path]++
		if math.Float64bits(inc) != math.Float64bits(full) {
			return c, fmt.Errorf("%v via %v %+v: incremental %v != full %v", h.Kind, path, h, inc, full)
		}
	}
	return c, nil
}

// fullPrice is the estimator's full-rebuild price of one hypothesis:
// the per-view distances of the hypothetical charts, summed in
// registration order from the first term.
func fullPrice(s *Session, h benefit.Hypothesis, bases []*vis.Data) float64 {
	total, summed := 0.0, false
	for v, d := range s.hypotheticalVis(h) {
		if d == nil {
			continue
		}
		dist := s.cfg.Dist(bases[v], d)
		if summed {
			total += dist
		} else {
			total, summed = dist, true
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
