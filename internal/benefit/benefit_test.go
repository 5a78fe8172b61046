package benefit

import (
	"math"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/erg"
)

// byKind prices every hypothesis from a fixed per-kind lookup; kinds
// not in the map price as zero.
func byKind(prices map[HypKind]float64) *Estimator {
	return &Estimator{Price: func(h Hypothesis) float64 { return prices[h.Kind] }}
}

func TestTBenefitWeighting(t *testing.T) {
	const dY = 0.375 // a confirm moves the chart; a split does not
	e := byKind(map[HypKind]float64{TConfirm: dY, TSplit: 0})
	pair := em.MakePair(1, 2)
	for _, pY := range []float64{0, 0.25, 0.5, 1} {
		got := e.TBenefit(pair, pY)
		want := pY * dY
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("TBenefit(p=%v) = %v, want %v", pY, got, want)
		}
	}
}

func TestABenefitRejectIsFree(t *testing.T) {
	const dY = 0.25
	e := byKind(map[HypKind]float64{AApprove: dY})
	if got := e.ABenefit("Venue", "VLDB", "Very Large Data Bases", 0.8); math.Abs(got-0.8*dY) > 1e-12 {
		t.Fatalf("ABenefit = %v, want %v", got, 0.8*dY)
	}
	if got := e.ABenefit("Venue", "x", "y", 0); got != 0 {
		t.Fatalf("zero-probability A benefit = %v", got)
	}
}

func TestMAndOBenefitAreUnweighted(t *testing.T) {
	const d = 0.4
	e := byKind(map[HypKind]float64{MImpute: d, ORepair: d})
	if got := e.MBenefit(7, 55); got != d {
		t.Fatalf("MBenefit = %v, want %v", got, d)
	}
	if got := e.OBenefit(2, 174); got != d {
		t.Fatalf("OBenefit = %v, want %v", got, d)
	}
}

func TestAnnotateFillsGraph(t *testing.T) {
	const d = 0.5 // every hypothesis but a split moves the chart by d
	e := byKind(map[HypKind]float64{TConfirm: d, AApprove: d, MImpute: d, ORepair: d})
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
	var calls int
	e := &Estimator{Price: func(h Hypothesis) float64 {
		calls++
		return 0.5
	}}
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
	// MImpute(7,10) -> 4 evaluations of the 8 prices requested above.
	if calls != 4 || e.Evals() != 4 {
		t.Fatalf("Price called %d times, Evals() = %d; want 4", calls, e.Evals())
	}
	if st := e.Stats(); st.Calls != 8 || st.Evals != 4 || st.MemoHits != 4 {
		t.Fatalf("Stats() = %+v, want 8 calls, 4 evals, 4 memo hits", st)
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
		e := &Estimator{
			Workers: workers,
			// A distinct, deterministic price per hypothesis.
			Price: func(h Hypothesis) float64 {
				return 1/(float64(h.Kind)+1) + float64(h.ID)*0.01 + h.Value*0.001 + float64(h.Pair.A+h.Pair.B)*0.1
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
