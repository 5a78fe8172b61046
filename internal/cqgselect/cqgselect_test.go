package cqgselect

import (
	"math"
	"math/rand"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/erg"
)

func ids(ns ...int) []dataset.TupleID {
	out := make([]dataset.TupleID, len(ns))
	for i, n := range ns {
		out[i] = dataset.TupleID(n)
	}
	return out
}

// connected reports whether the subgraph of g induced on vertices is
// connected, as a CQG must be: the selectors' reference, a depth-first
// search over HasVertex and Neighbors alone. Empty sets are not
// connected; singletons are.
func connected(g *erg.Graph, vertices []dataset.TupleID) bool {
	if len(vertices) == 0 {
		return false
	}
	in := make(map[dataset.TupleID]struct{}, len(vertices))
	for _, v := range vertices {
		if !g.HasVertex(v) {
			return false
		}
		in[v] = struct{}{}
	}
	seen := map[dataset.TupleID]struct{}{vertices[0]: {}}
	stack := []dataset.TupleID{vertices[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(v) {
			if _, member := in[nb]; !member {
				continue
			}
			if _, done := seen[nb]; done {
				continue
			}
			seen[nb] = struct{}{}
			stack = append(stack, nb)
		}
	}
	return len(seen) == len(in)
}

func TestConnected(t *testing.T) {
	// The shape of the paper's Fig 4: the triangle {1,2,3} and the edge
	// {7,8}.
	g := erg.MustNew(ids(1, 2, 3, 7, 8))
	for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 3}, {7, 8}} {
		if err := g.AddEdge(erg.Edge{A: dataset.TupleID(e[0]), B: dataset.TupleID(e[1]), HasT: true, PT: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		vs   []dataset.TupleID
		want bool
	}{
		{ids(1, 2, 3), true},
		{ids(1, 2), true},
		{ids(1), true},
		{ids(1, 7), false},
		{ids(1, 2, 3, 7, 8), false},
		{ids(7, 8), true},
		{nil, false},
		{ids(99), false},
	}
	for _, c := range cases {
		if got := connected(g, c.vs); got != c.want {
			t.Errorf("connected(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

// fig7 builds the ERG of the paper's Fig 7(b): vertices A..F (1..6) with
// the benefit-weighted edges of Example 6.
func fig7(t testing.TB) *erg.Graph {
	g := erg.MustNew(ids(1, 2, 3, 4, 5, 6)) // A B C D E F
	edges := []struct {
		a, b int
		w    float64
	}{
		{2, 5, 0.9}, // B-E
		{2, 3, 0.8}, // B-C
		{3, 5, 0.7}, // C-E
		{4, 6, 0.6}, // D-F
		{1, 5, 0.5}, // A-E
		{1, 2, 0.4}, // A-B
		{5, 6, 0.3}, // E-F
		{3, 4, 0.2}, // C-D
	}
	for _, e := range edges {
		if err := g.AddEdge(erg.Edge{
			A: dataset.TupleID(e.a), B: dataset.TupleID(e.b),
			HasT: true, PT: e.w, Benefit: e.w,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func benefitOf(g *erg.Graph, vs []dataset.TupleID) float64 { return g.SubgraphBenefit(vs) }

func TestGSSOnFig7(t *testing.T) {
	g := fig7(t)
	res := GSS(g, 4)
	// Example 6 selects {A, B, C, E} (Fig 7c) with benefit
	// 0.9+0.8+0.7+0.5+0.4 = 3.3.
	want := ids(1, 2, 3, 5)
	if len(res.Vertices) != 4 {
		t.Fatalf("vertices = %v", res.Vertices)
	}
	for i, v := range want {
		if res.Vertices[i] != v {
			t.Fatalf("vertices = %v, want %v", res.Vertices, want)
		}
	}
	if math.Abs(res.Benefit-3.3) > 1e-12 {
		t.Fatalf("benefit = %v, want 3.3", res.Benefit)
	}
	if !connected(g, res.Vertices) {
		t.Fatal("GSS result not connected")
	}
}

func TestBBOnFig7MatchesBruteForce(t *testing.T) {
	g := fig7(t)
	res := BranchAndBound(g, 4, BBOptions{})
	if res.Exhausted {
		t.Fatal("tiny search exhausted budget")
	}
	best := bruteForceBest(g, 4)
	if math.Abs(res.Benefit-best) > 1e-12 {
		t.Fatalf("B&B benefit = %v, brute force %v", res.Benefit, best)
	}
	if !connected(g, res.Vertices) {
		t.Fatal("B&B result not connected")
	}
}

// bruteForceBest enumerates all vertex subsets of size <= k and returns
// the best connected benefit.
func bruteForceBest(g *erg.Graph, k int) float64 {
	verts := g.Vertices()
	n := len(verts)
	best := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		var vs []dataset.TupleID
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				vs = append(vs, verts[i])
			}
		}
		if len(vs) > k || !connected(g, vs) {
			continue
		}
		if b := g.SubgraphBenefit(vs); b > best {
			best = b
		}
	}
	return best
}

func TestBBExactOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6)
		g := randomERG(rng, n, 0.4)
		k := 2 + rng.Intn(3)
		res := BranchAndBound(g, k, BBOptions{})
		want := bruteForceBest(g, k)
		if math.Abs(res.Benefit-want) > 1e-9 {
			t.Fatalf("trial %d: B&B = %v, brute force = %v (n=%d k=%d)", trial, res.Benefit, want, n, k)
		}
	}
}

func randomERG(rng *rand.Rand, n int, p float64) *erg.Graph {
	vs := make([]dataset.TupleID, n)
	for i := range vs {
		vs[i] = dataset.TupleID(i + 1)
	}
	g := erg.MustNew(vs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				w := rng.Float64()
				_ = g.AddEdge(erg.Edge{A: vs[i], B: vs[j], HasT: true, PT: w, Benefit: w})
			}
		}
	}
	// Sprinkle vertex repairs.
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			_ = g.SetRepair(erg.VertexRepair{ID: vs[i], Kind: erg.Outlier, Benefit: rng.Float64() / 2})
		}
	}
	return g
}

func TestHierarchyBBGeqGSSGeqNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		g := randomERG(rng, 12, 0.3)
		k := 4
		bb := BranchAndBound(g, k, BBOptions{})
		gssRes := GSS(g, k)
		if gssRes.Benefit > bb.Benefit+1e-9 {
			t.Fatalf("trial %d: GSS %v beat exact B&B %v", trial, gssRes.Benefit, bb.Benefit)
		}
		if len(gssRes.Vertices) > 0 && !connected(g, gssRes.Vertices) {
			t.Fatalf("trial %d: GSS disconnected %v", trial, gssRes.Vertices)
		}
	}
}

func TestAlphaBBGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	alpha := 5.0
	for trial := 0; trial < 20; trial++ {
		g := randomERG(rng, 10, 0.4)
		k := 4
		exact := BranchAndBound(g, k, BBOptions{})
		approx := AlphaBB(g, k, alpha, 0)
		if approx.Benefit < exact.Benefit/alpha-1e-9 {
			t.Fatalf("trial %d: α-B&B %v below OPT/α = %v", trial, approx.Benefit, exact.Benefit/alpha)
		}
	}
}

func TestBBExpansionBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := randomERG(rng, 40, 0.3)
	res := BranchAndBound(g, 8, BBOptions{MaxExpansions: 50})
	if !res.Exhausted {
		t.Fatal("expected budget exhaustion")
	}
	if len(res.Vertices) == 0 {
		t.Fatal("budgeted search returned nothing")
	}
	if !connected(g, res.Vertices) {
		t.Fatal("budgeted result not connected")
	}
}

func TestGSSPlusPrunesCertainEdges(t *testing.T) {
	g := erg.MustNew(ids(1, 2, 3, 4))
	// One certain edge (p=0.95) with huge benefit, a chain of uncertain
	// edges with small benefit. GSS+ must ignore the certain edge.
	mustAdd(t, g, erg.Edge{A: 1, B: 2, HasT: true, PT: 0.95, Benefit: 10})
	mustAdd(t, g, erg.Edge{A: 2, B: 3, HasT: true, PT: 0.5, Benefit: 1})
	mustAdd(t, g, erg.Edge{A: 3, B: 4, HasT: true, PT: 0.6, Benefit: 1})
	res := GSSPlus(g, 2)
	for _, v := range res.Vertices {
		if v == 1 {
			t.Fatalf("pruned edge's endpoint selected: %v", res.Vertices)
		}
	}
}

func mustAdd(t *testing.T, g *erg.Graph, e erg.Edge) {
	t.Helper()
	if err := g.AddEdge(e); err != nil {
		t.Fatal(err)
	}
}

func TestGSSPlusEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	g := randomERG(rng, 60, 0.2)
	full := GSS(g, 5)
	early := gss(g, 5, gssOptions{prune: true, pruneLow: 0, pruneHigh: 1, earlyStop: 1})
	// Early stop may be worse but never better than full GSS with the
	// same (unpruned) edge set... it can differ; just sanity-check shape.
	if len(early.Vertices) == 0 {
		t.Fatal("early-stop returned nothing")
	}
	if len(early.Vertices) > 5 || len(full.Vertices) > 5 {
		t.Fatal("k violated")
	}
	if !connected(g, early.Vertices) {
		t.Fatal("early-stop result not connected")
	}
}

func TestGSSSparseFallbacks(t *testing.T) {
	// Graph with a single edge but k=4: no set ever reaches k; the best
	// partial set must be returned.
	g := erg.MustNew(ids(1, 2, 3))
	mustAdd(t, g, erg.Edge{A: 1, B: 2, HasT: true, PT: 0.5, Benefit: 0.7})
	res := GSS(g, 4) // k clamps to 3, still unreachable
	if len(res.Vertices) != 2 || res.Benefit != 0.7 {
		t.Fatalf("sparse fallback = %+v", res)
	}

	// Edgeless graph with a repair: single best vertex.
	g2 := erg.MustNew(ids(1, 2))
	if err := g2.SetRepair(erg.VertexRepair{ID: 2, Kind: erg.Missing, Benefit: 0.4}); err != nil {
		t.Fatal(err)
	}
	res2 := GSS(g2, 3)
	if len(res2.Vertices) != 1 || res2.Vertices[0] != 2 {
		t.Fatalf("edgeless fallback = %+v", res2)
	}

	// Empty graph.
	res3 := GSS(erg.MustNew(nil), 3)
	if len(res3.Vertices) != 0 {
		t.Fatalf("empty graph result = %+v", res3)
	}
}

func TestRandomSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomERG(rng, 30, 0.2)
	for trial := 0; trial < 20; trial++ {
		res := Random(g, 6, rng)
		if len(res.Vertices) == 0 || len(res.Vertices) > 6 {
			t.Fatalf("random size = %d", len(res.Vertices))
		}
		if !connected(g, res.Vertices) {
			t.Fatalf("random result not connected: %v", res.Vertices)
		}
	}
	// Deterministic given the same seed.
	r1 := Random(g, 6, rand.New(rand.NewSource(5)))
	r2 := Random(g, 6, rand.New(rand.NewSource(5)))
	if len(r1.Vertices) != len(r2.Vertices) {
		t.Fatal("random not deterministic under fixed seed")
	}
	for i := range r1.Vertices {
		if r1.Vertices[i] != r2.Vertices[i] {
			t.Fatal("random not deterministic under fixed seed")
		}
	}
}

// Property: on random graphs, GSS's k-subgraph benefit is within the
// exact optimum and at least the average random selection (statistical
// sanity of the greedy heuristic).
func TestGSSBeatsRandomOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	gssWins := 0
	trials := 20
	for trial := 0; trial < trials; trial++ {
		g := randomERG(rng, 25, 0.25)
		k := 5
		gssRes := GSS(g, k)
		randSum := 0.0
		const nrand = 10
		for i := 0; i < nrand; i++ {
			randSum += Random(g, k, rng).Benefit
		}
		if gssRes.Benefit >= randSum/nrand {
			gssWins++
		}
	}
	if gssWins < trials*3/4 {
		t.Fatalf("GSS beat average random only %d/%d times", gssWins, trials)
	}
}

func BenchmarkGSS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomERG(rng, 200, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GSS(g, 10)
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomERG(rng, 40, 0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BranchAndBound(g, 5, BBOptions{MaxExpansions: 200000})
	}
}
