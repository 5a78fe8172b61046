package erg

import (
	"math"
	"testing"

	"visclean/internal/dataset"
)

func ids(ns ...int) []dataset.TupleID {
	out := make([]dataset.TupleID, len(ns))
	for i, n := range ns {
		out[i] = dataset.TupleID(n)
	}
	return out
}

// fig4 builds a small ERG in the spirit of the paper's Fig 4: a SIGMOD
// cluster {1,2,3} with an outlier on 2, plus a VLDB pair {7,8} with a
// missing value on 7.
func fig4(t testing.TB) *Graph {
	g := MustNew(ids(1, 2, 3, 7, 8))
	edges := []Edge{
		{A: 1, B: 2, HasT: true, PT: 0.7, HasA: true, PA: 0.6, AV1: "ACM SIGMOD", AV2: "SIGMOD Conf.", Benefit: 0.3},
		{A: 1, B: 3, HasT: true, PT: 0.6, HasA: true, PA: 0.7, AV1: "ACM SIGMOD", AV2: "SIGMOD", Benefit: 0.25},
		{A: 2, B: 3, HasT: true, PT: 0.65, HasA: true, PA: 0.55, AV1: "SIGMOD Conf.", AV2: "SIGMOD", Benefit: 0.2},
		{A: 7, B: 8, HasT: true, PT: 0.55, HasA: true, PA: 0.5, AV1: "VLDB", AV2: "Very Large Data Bases", Benefit: 0.4},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetRepair(VertexRepair{ID: 2, Kind: Outlier, Current: 1740, Suggested: 174, Score: 100, Benefit: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRepair(VertexRepair{ID: 7, Kind: Missing, Suggested: 55, Benefit: 0.15}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := fig4(t)
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("size = %d/%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasVertex(1) || g.HasVertex(99) {
		t.Fatal("HasVertex wrong")
	}
	nbs := g.Neighbors(1)
	if len(nbs) != 2 || nbs[0] != 2 || nbs[1] != 3 {
		t.Fatalf("neighbors(1) = %v", nbs)
	}
	if len(g.IncidentEdges(2)) != 2 {
		t.Fatalf("incident(2) = %v", g.IncidentEdges(2))
	}
	reps := g.Repairs()
	if len(reps) != 2 || reps[0].ID != 2 || reps[1].ID != 7 {
		t.Fatalf("repairs = %v", reps)
	}
	if g.Repair(2).Kind != Outlier || g.Repair(7).Kind != Missing {
		t.Fatal("repair kinds wrong")
	}
	if g.Repair(99) != nil {
		t.Fatal("unknown repair should be nil")
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	if _, err := New(ids(1, 2, 1)); err == nil {
		t.Fatal("expected duplicate-vertex error")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := MustNew(ids(1, 2))
	if err := g.AddEdge(Edge{A: 1, B: 9}); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if err := g.AddEdge(Edge{A: 1, B: 1}); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddEdge(Edge{A: 1, B: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(Edge{A: 2, B: 1}); err == nil {
		t.Fatal("duplicate (reversed) edge accepted")
	}
}

func TestSetRepairValidation(t *testing.T) {
	g := MustNew(ids(1))
	if err := g.SetRepair(VertexRepair{ID: 5}); err == nil {
		t.Fatal("repair on unknown vertex accepted")
	}
}

func TestEdgeSortWeightFoldsVertexBenefits(t *testing.T) {
	g := fig4(t)
	// Edge 0 = (1,2): benefit 0.3 + outlier benefit 0.2 on vertex 2.
	if got := g.EdgeSortWeight(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sort weight = %v, want 0.5", got)
	}
	// Edge 3 = (7,8): 0.4 + missing 0.15.
	if got := g.EdgeSortWeight(3); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("sort weight = %v, want 0.55", got)
	}
}

func TestSubgraphBenefitCountsVertexOnce(t *testing.T) {
	g := fig4(t)
	// Triangle {1,2,3}: edges 0.3+0.25+0.2 = 0.75, plus outlier 0.2 once.
	if got := g.SubgraphBenefit(ids(1, 2, 3)); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("benefit = %v, want 0.95", got)
	}
	// Single vertex with repair.
	if got := g.SubgraphBenefit(ids(2)); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("benefit = %v, want 0.2", got)
	}
	if got := g.SubgraphBenefit(nil); got != 0 {
		t.Fatalf("empty benefit = %v", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := fig4(t)
	sub := g.InducedSubgraph(ids(1, 2, 3))
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("sub size = %d/%d", sub.NumVertices(), sub.NumEdges())
	}
	if sub.Repair(2) == nil || sub.Repair(7) != nil {
		t.Fatal("repairs not carried correctly")
	}
	// Mutating the subgraph's repair must not affect the parent.
	sub.Repair(2).Benefit = 99
	if g.Repair(2).Benefit == 99 {
		t.Fatal("repair aliased between graphs")
	}
	// Unknown and duplicate vertices ignored.
	sub2 := g.InducedSubgraph(ids(1, 1, 99))
	if sub2.NumVertices() != 1 {
		t.Fatalf("sub2 vertices = %d", sub2.NumVertices())
	}
}
