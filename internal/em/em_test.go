package em

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"visclean/internal/dataset"
	"visclean/internal/rf"
)

func pubsTable(t testing.TB) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Title", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Citations", Kind: dataset.Float},
	})
	rows := [][]dataset.Value{
		{dataset.Str("NADEEF"), dataset.Str("ACM SIGMOD"), dataset.Num(174)},
		{dataset.Str("NADEEF"), dataset.Str("SIGMOD Conf."), dataset.Num(1740)},
		{dataset.Str("NADEEF"), dataset.Str("SIGMOD"), dataset.Num(174)},
		{dataset.Str("KuaFu"), dataset.Str("ICDE 2013"), dataset.Num(15)},
		{dataset.Str("SeeDB"), dataset.Str("VLDB"), dataset.Null(dataset.Float)},
		{dataset.Str("SeeDB"), dataset.Str("Very Large Data Bases"), dataset.Num(55)},
		{dataset.Str("Elaps"), dataset.Str("ICDE"), dataset.Num(42)},
		{dataset.Str("Elaps"), dataset.Str("IEEE ICDE Conf. 2015"), dataset.Num(44)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func TestFeaturesShapeAndRange(t *testing.T) {
	tbl := pubsTable(t)
	fe := NewFeatureExtractor(tbl)
	want := 3 + 3 + 2 // two string cols, one float col
	if fe.Width() != want {
		t.Fatalf("width = %d, want %d", fe.Width(), want)
	}
	f := fe.Features(tbl, tbl.ID(0), tbl.ID(1))
	if len(f) != want {
		t.Fatalf("feature len = %d", len(f))
	}
	for i, v := range f {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %v out of [0,1]", i, v)
		}
	}
	// Same title -> exact-match flag 1 for Title block (index 2).
	if f[2] != 1 {
		t.Fatalf("title exact flag = %v", f[2])
	}
}

func TestFeaturesIdenticalTuples(t *testing.T) {
	tbl := pubsTable(t)
	fe := NewFeatureExtractor(tbl)
	f := fe.Features(tbl, tbl.ID(0), tbl.ID(0))
	for i, v := range f {
		if v != 1 {
			t.Fatalf("self features[%d] = %v, want 1", i, v)
		}
	}
}

func TestFeaturesNullsNeutral(t *testing.T) {
	tbl := pubsTable(t)
	fe := NewFeatureExtractor(tbl)
	// Tuple 4 has null Citations; numeric block (last two features) must
	// be neutral 0.5.
	f := fe.Features(tbl, tbl.ID(4), tbl.ID(5))
	if f[6] != 0.5 || f[7] != 0.5 {
		t.Fatalf("null numeric features = %v %v, want 0.5 0.5", f[6], f[7])
	}
}

func TestFeaturesVanishedTuple(t *testing.T) {
	tbl := pubsTable(t)
	fe := NewFeatureExtractor(tbl)
	f := fe.Features(tbl, tbl.ID(0), dataset.TupleID(999))
	if len(f) != fe.Width() {
		t.Fatalf("vanished-tuple feature len = %d", len(f))
	}
	for _, v := range f {
		if v != 0 {
			t.Fatalf("vanished tuple should be maximally dissimilar, got %v", f)
		}
	}
}

func TestCandidatesBlocking(t *testing.T) {
	tbl := pubsTable(t)
	pairs := Candidates(tbl, BlockingConfig{KeyColumns: []int{0}})
	// Titles: NADEEF x3 -> 3 pairs, SeeDB x2 -> 1, Elaps x2 -> 1.
	if len(pairs) != 5 {
		t.Fatalf("candidates = %v", pairs)
	}
	for _, p := range pairs {
		if p.A >= p.B {
			t.Fatalf("non-canonical pair %v", p)
		}
	}
	// Deterministic ordering.
	again := Candidates(tbl, BlockingConfig{KeyColumns: []int{0}})
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("candidate order not deterministic")
		}
	}
}

func TestCandidatesDefaultKeyColumn(t *testing.T) {
	tbl := pubsTable(t)
	pairs := Candidates(tbl, BlockingConfig{})
	if len(pairs) != 5 {
		t.Fatalf("default key column candidates = %d", len(pairs))
	}
}

func TestCandidatesMaxBlockSkipsStopTokens(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "T", Kind: dataset.String}})
	for i := 0; i < 10; i++ {
		tbl.MustAppend([]dataset.Value{dataset.Str("common")})
	}
	pairs := Candidates(tbl, BlockingConfig{KeyColumns: []int{0}, MaxBlockSize: 5})
	if len(pairs) != 0 {
		t.Fatalf("oversized block should be skipped, got %d pairs", len(pairs))
	}
}

func TestMatcherHeuristicAndLabels(t *testing.T) {
	tbl := pubsTable(t)
	m := NewMatcher(tbl, rf.DefaultConfig())
	p01 := MakePair(tbl.ID(0), tbl.ID(1))
	p03 := MakePair(tbl.ID(0), tbl.ID(3))
	if m.forest != nil {
		t.Fatal("untrained matcher has a forest")
	}
	if m.Prob(tbl, p01) <= m.Prob(tbl, p03) {
		t.Fatal("heuristic should rank same-title pair above different-title pair")
	}
	m.AddLabel(p01, true)
	if got := m.Prob(tbl, p01); got != 1 {
		t.Fatalf("labeled pair prob = %v, want 1", got)
	}
	m.AddLabel(p01, false)
	if got := m.Prob(tbl, p01); got != 0 {
		t.Fatalf("relabeled pair prob = %v, want 0", got)
	}
}

func TestMatcherTrainAndPredict(t *testing.T) {
	tbl := pubsTable(t)
	m := NewMatcher(tbl, rf.DefaultConfig())
	// Seed: duplicates share titles in this fixture.
	m.AddLabel(MakePair(tbl.ID(0), tbl.ID(1)), true)
	m.AddLabel(MakePair(tbl.ID(0), tbl.ID(2)), true)
	m.AddLabel(MakePair(tbl.ID(0), tbl.ID(3)), false)
	m.AddLabel(MakePair(tbl.ID(3), tbl.ID(6)), false)
	if err := m.Train(tbl); err != nil {
		t.Fatal(err)
	}
	if m.forest == nil {
		t.Fatal("expected trained forest")
	}
	match := m.Prob(tbl, MakePair(tbl.ID(1), tbl.ID(2)))    // NADEEF pair
	nonmatch := m.Prob(tbl, MakePair(tbl.ID(4), tbl.ID(6))) // SeeDB vs Elaps
	if match <= nonmatch {
		t.Fatalf("trained model: match prob %v <= nonmatch prob %v", match, nonmatch)
	}
}

func TestMatcherSingleClassKeepsHeuristic(t *testing.T) {
	tbl := pubsTable(t)
	m := NewMatcher(tbl, rf.DefaultConfig())
	m.AddLabel(MakePair(tbl.ID(0), tbl.ID(1)), true)
	if err := m.Train(tbl); err != nil {
		t.Fatal(err)
	}
	if m.forest != nil {
		t.Fatal("single-class training should not produce a forest")
	}
}

// mergeList keeps the candidates whose probability clears threshold,
// sorted by MergeBefore, as a session's auto-merge list is.
func mergeList(cands []Pair, prob func(Pair) float64, threshold float64) []ScoredPair {
	var list []ScoredPair
	for _, p := range cands {
		if pr := prob(p); pr >= threshold {
			list = append(list, ScoredPair{Pair: p, Prob: pr})
		}
	}
	sort.Slice(list, func(i, j int) bool { return MergeBefore(list[i], list[j]) })
	return list
}

func TestBuildClusters(t *testing.T) {
	tbl := pubsTable(t)
	probs := map[Pair]float64{
		MakePair(tbl.ID(0), tbl.ID(1)): 0.9,
		MakePair(tbl.ID(1), tbl.ID(2)): 0.8,
		MakePair(tbl.ID(4), tbl.ID(5)): 0.6,
		MakePair(tbl.ID(6), tbl.ID(7)): 0.3,
	}
	cands := make([]Pair, 0, len(probs))
	for p := range probs {
		cands = append(cands, p)
	}
	c := BuildClustersSorted(tbl, mergeList(cands, func(p Pair) float64 { return probs[p] }, 0.5), ClusterConfig{})
	if !c.Same(tbl.ID(0), tbl.ID(2)) {
		t.Fatal("transitive merge missing")
	}
	if !c.Same(tbl.ID(4), tbl.ID(5)) {
		t.Fatal("0.6 pair should merge")
	}
	if c.Same(tbl.ID(6), tbl.ID(7)) {
		t.Fatal("0.3 pair should not merge")
	}
	groups := c.Groups(2)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestBuildClustersConstraints(t *testing.T) {
	tbl := pubsTable(t)
	p01 := MakePair(tbl.ID(0), tbl.ID(1))
	p12 := MakePair(tbl.ID(1), tbl.ID(2))
	cands := []Pair{p01, p12}
	high := func(Pair) float64 { return 0.99 }

	// Split(0,2) must prevent the transitive merge of all three.
	c := BuildClustersSorted(tbl, mergeList(cands, high, 0.5), ClusterConfig{
		Split: []Pair{MakePair(tbl.ID(0), tbl.ID(2))},
	})
	if c.Same(tbl.ID(0), tbl.ID(2)) {
		t.Fatal("cannot-link violated")
	}
	// One of the two merges succeeded, the other was blocked.
	merged := 0
	if c.Same(tbl.ID(0), tbl.ID(1)) {
		merged++
	}
	if c.Same(tbl.ID(1), tbl.ID(2)) {
		merged++
	}
	if merged != 1 {
		t.Fatalf("merged = %d, want exactly 1", merged)
	}

	// Confirmed edges merge even below threshold.
	c2 := BuildClustersSorted(tbl, nil, ClusterConfig{
		Confirmed: []Pair{p01},
	})
	if !c2.Same(tbl.ID(0), tbl.ID(1)) {
		t.Fatal("confirmed pair not merged")
	}
}

func TestUnionFindProperties(t *testing.T) {
	f := func(ops []uint16, n uint8) bool {
		size := int(n%50) + 2
		uf := NewUnionFind(size)
		naive := make([]int, size)
		for i := range naive {
			naive[i] = i
		}
		naiveFind := func(x int) int { return naive[x] }
		naiveUnion := func(a, b int) {
			ra, rb := naive[a], naive[b]
			if ra == rb {
				return
			}
			for i := range naive {
				if naive[i] == rb {
					naive[i] = ra
				}
			}
		}
		for _, op := range ops {
			a := int(op) % size
			b := int(op>>8) % size
			uf.Union(a, b)
			naiveUnion(a, b)
		}
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if uf.Same(i, j) != (naiveFind(i) == naiveFind(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFindGroupsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	uf := NewUnionFind(30)
	for i := 0; i < 25; i++ {
		uf.Union(rng.Intn(30), rng.Intn(30))
	}
	g1 := uf.Groups(2)
	g2 := uf.Groups(2)
	if len(g1) != len(g2) {
		t.Fatal("groups nondeterministic")
	}
	for i := range g1 {
		if len(g1[i]) != len(g2[i]) {
			t.Fatal("group sizes differ")
		}
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatal("group members differ")
			}
		}
		if i > 0 && g1[i][0] < g1[i-1][0] {
			t.Fatal("groups not sorted by first member")
		}
	}
}

func TestNumericFeatureMADScale(t *testing.T) {
	// Years cluster tightly (MAD small) so a 5-year gap must be visibly
	// dissimilar; citation counts are heavy-tailed (MAD moderate) so a
	// 2-point gap must stay similar while a 10x decimal shift is
	// maximally dissimilar.
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Year", Kind: dataset.Float},
		{Name: "Citations", Kind: dataset.Float},
	})
	years := []float64{2010, 2011, 2012, 2013, 2014, 2015}
	cites := []float64{40, 42, 44, 174, 200, 1740}
	for i := range years {
		tbl.MustAppend([]dataset.Value{dataset.Num(years[i]), dataset.Num(cites[i])})
	}
	fe := NewFeatureExtractor(tbl)

	f01 := fe.Features(tbl, tbl.ID(0), tbl.ID(1)) // year gap 1, cite gap 2
	f05 := fe.Features(tbl, tbl.ID(0), tbl.ID(5)) // year gap 5, cite gap 1700
	// Feature layout: [yearSim, yearAgree, citeSim, citeAgree].
	if f01[0] <= f05[0] {
		t.Fatalf("year similarity not monotone: gap1=%v gap5=%v", f01[0], f05[0])
	}
	if f01[2] < 0.9 {
		t.Fatalf("small citation gap should stay similar, got %v", f01[2])
	}
	if f05[2] > 0.05 {
		t.Fatalf("decimal-shift citation gap should be dissimilar, got %v", f05[2])
	}
}

func TestHeuristicBlendStabilizesProb(t *testing.T) {
	// A trained matcher's probability must mix the forest with the
	// heuristic: train an all-positive-vs-negative forest and verify the
	// blended probability is strictly between the pure components.
	tbl := pubsTable(t)
	m := NewMatcher(tbl, rf.DefaultConfig())
	m.AddLabel(MakePair(tbl.ID(0), tbl.ID(1)), true)
	m.AddLabel(MakePair(tbl.ID(0), tbl.ID(2)), true)
	m.AddLabel(MakePair(tbl.ID(3), tbl.ID(6)), false)
	m.AddLabel(MakePair(tbl.ID(4), tbl.ID(6)), false)
	if err := m.Train(tbl); err != nil {
		t.Fatal(err)
	}
	p := MakePair(tbl.ID(1), tbl.ID(2))
	feats := m.Features(tbl, p)
	blended := m.ProbWithFeatures(p, feats)
	heur := m.heuristic(feats)
	forest := m.forest.PredictProba(feats)
	want := 0.7*forest + 0.3*heur
	if diff := blended - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("blend = %v, want %v (forest %v, heuristic %v)", blended, want, forest, heur)
	}
}
