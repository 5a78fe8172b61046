package pipeline

// Test-only access to pipeline internals for the external test package
// (pipeline_test), whose tests import packages that import pipeline.

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"visclean/internal/benefit"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/goldenrec"
	"visclean/internal/vis"
)

// PriceCounts tallies one or more PriceEveryHypothesis passes.
type PriceCounts struct {
	Priced int
	paths  [numPricePaths]int // prices per pricer path
}

// Add accumulates another pass.
func (c *PriceCounts) Add(o PriceCounts) {
	c.Priced += o.Priced
	for i, n := range o.paths {
		c.paths[i] += n
	}
}

// SplitInside counts the in-cluster cannot-links priced by replaying
// their cluster alone (DESIGN.md §10, path 4).
func (c PriceCounts) SplitInside() int { return c.paths[pathSplitInside] }

func (c PriceCounts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d hypotheses priced both ways; by path:", c.Priced)
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
// ERG twice, through the delta pricer and through the full hypothetical
// rebuild below, and counts the prices by pricer path. err names the
// first price whose bits differ from the rebuild's. Session state is
// left as it was.
func PriceEveryHypothesis(s *Session) (PriceCounts, error) {
	var c PriceCounts
	bases, err := s.CurrentVisAll()
	if err != nil {
		return c, err
	}
	g := s.buildERG(s.detectQuestions())
	s.freezeShared()
	p, err := s.newDeltaPricer()
	if err != nil {
		return c, err
	}
	for _, h := range collectHypotheses(g) {
		full := fullPrice(s, h, bases)
		inc, path := p.priceVia(h)
		c.Priced++
		c.paths[path]++
		if math.Float64bits(inc) != math.Float64bits(full) {
			return c, fmt.Errorf("%v via %v %+v: incremental %v != full %v", h.Kind, path, h, inc, full)
		}
	}
	return c, nil
}

// fullPrice is the reference price of one hypothesis: the per-view
// distances of the fully rebuilt hypothetical charts, summed in
// registration order.
func fullPrice(s *Session, h benefit.Hypothesis, bases []*vis.Data) float64 {
	total := 0.0
	for v, d := range s.hypotheticalVis(h) {
		if d != nil {
			total += distance.Default(bases[v], d)
		}
	}
	return total
}

// hypotheticalVis derives every view's chart, in registration order,
// under one hypothetical user answer by rebuilding the cleaned relation
// in full, leaving all session state untouched. A nil return means the
// hypothesis is inapplicable (an unknown tuple, a column with no
// standardizer); a nil element means that one view's query failed over
// the hypothetical relation.
func (s *Session) hypotheticalVis(h benefit.Hypothesis) []*vis.Data {
	cl, std, ov, ok := s.hypotheticalState(h)
	if !ok {
		return nil
	}
	view := s.buildView(cl, std, ov)
	out := make([]*vis.Data, len(s.queries))
	for v, q := range s.queries {
		if d, err := q.Execute(view); err == nil {
			out[v] = d
		}
	}
	return out
}

// hypotheticalState derives the cleaned-relation inputs — clusters,
// standardizers, cell overlay — that one hypothetical answer implies.
// ok=false means the hypothesis is inapplicable.
func (s *Session) hypotheticalState(h benefit.Hypothesis) (cl *em.Clusters, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay, ok bool) {
	switch h.Kind {
	case benefit.TConfirm:
		cl = s.hypotheticalClusters([]em.Pair{h.Pair}, nil)
		// Confirming tuples also equates their A-column values (§VI
		// label-edge semantics), so standardize them hypothetically.
		std = s.std
		if override := s.tPairStandardizers(h.Pair); override != nil {
			std = override
		}
		return cl, std, nil, true
	case benefit.TSplit:
		return s.hypotheticalClusters(nil, []em.Pair{h.Pair}), s.std, nil, true
	case benefit.AApprove:
		st := s.std[h.Column]
		if st == nil {
			return nil, nil, nil, false
		}
		override := cloneStdMap(s.std)
		clone := st.Clone()
		clone.Approve(h.V1, h.V2)
		override[h.Column] = clone
		return s.clusters, override, nil, true
	case benefit.MImpute, benefit.ORepair:
		// Overlay.Set enforces both the id's existence and the numeric
		// kind of the measure column.
		ov = s.table.Overlay()
		if ov.Set(h.ID, s.yCol, dataset.Num(h.Value)) != nil {
			return nil, nil, nil, false
		}
		return s.clusters, s.std, ov, true
	default:
		return nil, nil, nil, false
	}
}

// hypotheticalClusters builds the entity partition under the session's
// user constraints plus extra hypothetical ones, from scratch.
func (s *Session) hypotheticalClusters(extraConfirm, extraSplit []em.Pair) *em.Clusters {
	return em.BuildClustersSorted(s.table, s.mergeList, em.ClusterConfig{
		Confirmed: append(slices.Clone(s.confirmed), extraConfirm...),
		Split:     append(slices.Clone(s.split), extraSplit...),
	})
}

// tPairStandardizers returns a standardizer override where the pair's
// values in every A-column are equated, or nil when nothing changes.
func (s *Session) tPairStandardizers(p em.Pair) map[string]*goldenrec.Standardizer {
	return s.stdOverride(s.tPairChanges(p))
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
