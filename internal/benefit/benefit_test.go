package benefit

import (
	"math"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/vis"
)

func chart(ys ...float64) *vis.Data {
	d := &vis.Data{Type: vis.Bar}
	for i, y := range ys {
		d.Points = append(d.Points, vis.Point{Label: string(rune('A' + i)), Y: y})
	}
	return d
}

// fakeWorld prices hypotheses from a fixed lookup of resulting charts.
type fakeWorld struct {
	base  *vis.Data
	after map[HypKind]*vis.Data
}

func (w *fakeWorld) estimator() *Estimator {
	return &Estimator{
		Dist:  distance.EMD,
		Bases: []*vis.Data{w.base},
		Hypothetical: func(h Hypothesis) []*vis.Data {
			return []*vis.Data{w.after[h.Kind]}
		},
	}
}

func TestTBenefitWeighting(t *testing.T) {
	base := chart(1, 1)
	confirmVis := chart(3, 1) // some distance dY > 0
	splitVis := base.Clone()  // no change: dN = 0
	w := &fakeWorld{base: base, after: map[HypKind]*vis.Data{
		TConfirm: confirmVis,
		TSplit:   splitVis,
	}}
	e := w.estimator()
	pair := em.MakePair(1, 2)
	dY := distance.EMD(base, confirmVis)
	if dY <= 0 {
		t.Fatal("test setup: dY must be positive")
	}
	for _, pY := range []float64{0, 0.25, 0.5, 1} {
		got := e.TBenefit(pair, pY)
		want := pY * dY
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("TBenefit(p=%v) = %v, want %v", pY, got, want)
		}
	}
}

func TestABenefitRejectIsFree(t *testing.T) {
	base := chart(2, 1)
	w := &fakeWorld{base: base, after: map[HypKind]*vis.Data{
		AApprove: chart(3, 0),
	}}
	e := w.estimator()
	dY := distance.EMD(base, w.after[AApprove])
	if got := e.ABenefit("Venue", "VLDB", "Very Large Data Bases", 0.8); math.Abs(got-0.8*dY) > 1e-12 {
		t.Fatalf("ABenefit = %v, want %v", got, 0.8*dY)
	}
	if got := e.ABenefit("Venue", "x", "y", 0); got != 0 {
		t.Fatalf("zero-probability A benefit = %v", got)
	}
}

func TestMAndOBenefitAreUnweighted(t *testing.T) {
	base := chart(1, 2)
	after := chart(5, 2)
	w := &fakeWorld{base: base, after: map[HypKind]*vis.Data{
		MImpute: after,
		ORepair: after,
	}}
	e := w.estimator()
	d := distance.EMD(base, after)
	if got := e.MBenefit(7, 55); math.Abs(got-d) > 1e-12 {
		t.Fatalf("MBenefit = %v, want %v", got, d)
	}
	if got := e.OBenefit(2, 174); math.Abs(got-d) > 1e-12 {
		t.Fatalf("OBenefit = %v, want %v", got, d)
	}
}

func TestNilHypotheticalPricesZero(t *testing.T) {
	e := &Estimator{
		Dist:         distance.EMD,
		Bases:        []*vis.Data{chart(1, 2)},
		Hypothetical: func(Hypothesis) []*vis.Data { return nil },
	}
	if got := e.TBenefit(em.MakePair(1, 2), 0.5); got != 0 {
		t.Fatalf("nil hypothetical priced %v", got)
	}
}

// TestOneViewPriceKeepsNegativeZero pins where the per-view sum starts:
// at the first term. A one-view estimator then prices exactly
// Dist(base, chart), sign of zero included; a sum started from 0.0
// would turn a −0.0 distance into +0.0.
func TestOneViewPriceKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	e := &Estimator{
		Dist:         func(a, b *vis.Data) float64 { return negZero },
		Bases:        []*vis.Data{chart(1, 2)},
		Hypothetical: func(Hypothesis) []*vis.Data { return []*vis.Data{chart(2, 1)} },
	}
	if got := e.MBenefit(7, 1); math.Float64bits(got) != math.Float64bits(negZero) {
		t.Fatalf("one-view price = %v (bits %016x), want -0 (bits %016x)",
			got, math.Float64bits(got), math.Float64bits(negZero))
	}
}

// TestNilViewChartDropsOnlyItsTerm: a three-view price whose middle
// chart is nil is exactly d0 + d2.
func TestNilViewChartDropsOnlyItsTerm(t *testing.T) {
	bases := []*vis.Data{chart(1, 2, 3), chart(4, 4), chart(0.1, 0.7)}
	after := []*vis.Data{chart(1, 1, 4), nil, chart(0.3, 0.3)}
	e := &Estimator{
		Dist:         distance.EMD,
		Bases:        bases,
		Hypothetical: func(Hypothesis) []*vis.Data { return after },
	}
	d0, d2 := distance.EMD(bases[0], after[0]), distance.EMD(bases[2], after[2])
	if d0 == 0 || d2 == 0 {
		t.Fatal("test setup: both distances must be non-zero")
	}
	if got, want := e.OBenefit(3, 9), d0+d2; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("three-view price = %v, want d0 + d2 = %v", got, want)
	}
}

func TestAnnotateFillsGraph(t *testing.T) {
	base := chart(1, 1, 1)
	afterAny := chart(4, 1, 1)
	e := &Estimator{
		Dist:  distance.EMD,
		Bases: []*vis.Data{base},
		Hypothetical: func(h Hypothesis) []*vis.Data {
			if h.Kind == TSplit {
				return []*vis.Data{base.Clone()}
			}
			return []*vis.Data{afterAny}
		},
	}
	g := erg.MustNew([]dataset.TupleID{1, 2, 3})
	if err := g.AddEdge(erg.Edge{A: 1, B: 2, HasT: true, PT: 0.6, HasA: true, PA: 0.5, AV1: "a", AV2: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(erg.Edge{A: 2, B: 3, HasT: true, PT: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRepair(erg.VertexRepair{ID: 3, Kind: erg.Missing, Suggested: 10}); err != nil {
		t.Fatal(err)
	}
	evals := e.Annotate(g)
	// Edge 0: T (2 evals) + A (1 eval); edge 1: T (2); repair: 1 -> 6.
	if evals != 6 {
		t.Fatalf("evals = %d, want 6", evals)
	}
	d := distance.EMD(base, afterAny)
	wantE0 := 0.6*d + 0.5*d
	if got := g.Edge(0).Benefit; math.Abs(got-wantE0) > 1e-12 {
		t.Fatalf("edge 0 benefit = %v, want %v", got, wantE0)
	}
	if got := g.Edge(1).Benefit; math.Abs(got-0.4*d) > 1e-12 {
		t.Fatalf("edge 1 benefit = %v, want %v", got, 0.4*d)
	}
	if got := g.Repair(3).Benefit; math.Abs(got-d) > 1e-12 {
		t.Fatalf("repair benefit = %v, want %v", got, d)
	}
}

func TestExample5Accounting(t *testing.T) {
	// Paper Example 5: edge (t1,t2) with B_T=0.1, B_A=0.2 and B_O=0.2 on
	// t2 gives sort weight 0.5. We verify the DESIGN.md accounting: edge
	// Benefit = 0.3, vertex folds in for sorting only.
	g := erg.MustNew([]dataset.TupleID{1, 2})
	if err := g.AddEdge(erg.Edge{A: 1, B: 2, Benefit: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRepair(erg.VertexRepair{ID: 2, Kind: erg.Outlier, Benefit: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeSortWeight(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sort weight = %v, want 0.5 (Example 5)", got)
	}
	if got := g.SubgraphBenefit([]dataset.TupleID{1, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CQG benefit = %v, want 0.5", got)
	}
}

func TestMemoizationPricesUniqueHypothesesOnce(t *testing.T) {
	base := chart(1, 2)
	var calls int
	e := &Estimator{
		Dist:  distance.EMD,
		Bases: []*vis.Data{base},
		Hypothetical: func(h Hypothesis) []*vis.Data {
			calls++
			return []*vis.Data{chart(3, 2)}
		},
	}
	// Symmetric forms canonicalize to one memo slot: (1,2) vs (2,1)
	// pairs, ("a","b") vs ("b","a") value pairs.
	b1 := e.TBenefit(em.Pair{A: 1, B: 2}, 0.5)
	b2 := e.TBenefit(em.Pair{A: 2, B: 1}, 0.5)
	if b1 != b2 {
		t.Fatalf("symmetric T pairs priced differently: %v vs %v", b1, b2)
	}
	a1 := e.ABenefit("Venue", "a", "b", 1)
	a2 := e.ABenefit("Venue", "b", "a", 1)
	if a1 != a2 {
		t.Fatalf("symmetric A pairs priced differently: %v vs %v", a1, a2)
	}
	e.MBenefit(7, 10)
	e.MBenefit(7, 10) // repeat: memo hit
	// Unique hypotheses: TConfirm(1,2), TSplit(1,2), AApprove(a,b),
	// MImpute(7,10) -> 4 evaluations, regardless of the 7 calls above.
	if calls != 4 || e.Evals() != 4 {
		t.Fatalf("Hypothetical called %d times, Evals() = %d; want 4", calls, e.Evals())
	}
	// A distinct hypothesis is a miss.
	e.MBenefit(7, 11)
	if e.Evals() != 5 {
		t.Fatalf("Evals() = %d after new hypothesis, want 5", e.Evals())
	}
}

func TestAnnotateWorkerCountInvariance(t *testing.T) {
	// Annotate at Workers=1 and Workers=8 must produce bit-identical
	// benefits (the index-write rule); the hypothesis set priced is the
	// same, so Evals matches too.
	build := func(workers int) (*erg.Graph, int) {
		base := chart(1, 1, 1, 1)
		e := &Estimator{
			Dist:    distance.EMD,
			Bases:   []*vis.Data{base},
			Workers: workers,
			Hypothetical: func(h Hypothesis) []*vis.Data {
				// A distinct, deterministic chart per hypothesis.
				return []*vis.Data{chart(float64(h.Kind)+1, float64(h.ID), h.Value, float64(h.Pair.A)+float64(h.Pair.B))}
			},
		}
		g := erg.MustNew([]dataset.TupleID{1, 2, 3, 4, 5})
		for i := dataset.TupleID(1); i < 5; i++ {
			if err := g.AddEdge(erg.Edge{A: i, B: i + 1, HasT: true, PT: 0.5, HasA: true, PA: 0.4, AV1: "a", AV2: "b"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.SetRepair(erg.VertexRepair{ID: 2, Kind: erg.Outlier, Current: 9, Suggested: 3}); err != nil {
			t.Fatal(err)
		}
		if err := g.SetRepair(erg.VertexRepair{ID: 4, Kind: erg.Missing, Suggested: 7}); err != nil {
			t.Fatal(err)
		}
		return g, e.Annotate(g)
	}
	g1, n1 := build(1)
	g8, n8 := build(8)
	if n1 != n8 {
		t.Fatalf("eval counts differ: %d vs %d", n1, n8)
	}
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.Edge(i).Benefit != g8.Edge(i).Benefit {
			t.Fatalf("edge %d benefit differs: %v vs %v", i, g1.Edge(i).Benefit, g8.Edge(i).Benefit)
		}
	}
	r1, r8 := g1.Repairs(), g8.Repairs()
	for i := range r1 {
		if r1[i].Benefit != r8[i].Benefit {
			t.Fatalf("repair %d benefit differs: %v vs %v", i, r1[i].Benefit, r8[i].Benefit)
		}
	}
}
