package em

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/rf"
	"visclean/internal/stringsim"
)

// featuresRef is the per-pair feature definition FeaturesOf must match
// bit for bit: each pair scored on its own strings with the string-level
// measures, nothing shared across pairs.
func featuresRef(fe *FeatureExtractor, t *dataset.Table, a, b dataset.TupleID) []float64 {
	ia, okA := t.RowIndex(a)
	ib, okB := t.RowIndex(b)
	out := make([]float64, 0, fe.Width())
	if !okA || !okB {
		for range fe.schema {
			out = append(out, 0, 0)
		}
		return out[:fe.Width()]
	}
	for c, col := range fe.schema {
		va, vb := t.Get(ia, c), t.Get(ib, c)
		if col.Kind == dataset.String {
			sa, okSA := va.Text()
			sb, okSB := vb.Text()
			if !okSA || !okSB {
				out = append(out, 0.5, 0.5, 0.5)
				continue
			}
			exact := 0.0
			if sa == sb {
				exact = 1.0
			}
			out = append(out, stringsim.Jaccard(sa, sb), stringsim.JaroWinkler(sa, sb), exact)
		} else {
			fa, okFA := va.Float()
			fb, okFB := vb.Float()
			if !okFA || !okFB {
				out = append(out, 0.5, 0.5)
				continue
			}
			diff := fa - fb
			if diff < 0 {
				diff = -diff
			}
			sim := math.Exp(-diff / fe.scale[c])
			agree := 0.0
			if fa == fb {
				agree = 1.0
			}
			out = append(out, sim, agree)
		}
	}
	return out
}

// variantsTable holds the cases a per-batch value cache could get wrong:
// repeated values across rows and columns, case and non-ASCII variants
// whose lowered forms differ in length, and null strings and floats.
func variantsTable() *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Name", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Score", Kind: dataset.Float},
	})
	rows := [][]dataset.Value{
		{dataset.Str("SIGMOD"), dataset.Str("sigmod"), dataset.Num(1)},
		{dataset.Str("sigmod"), dataset.Str("SIGMOD"), dataset.Num(1)},
		{dataset.Str("Straße"), dataset.Str("STRASSE"), dataset.Null(dataset.Float)},
		{dataset.Str("İstanbul"), dataset.Str("istanbul"), dataset.Num(3.5)},
		{dataset.Null(dataset.String), dataset.Str("SIGMOD"), dataset.Num(-2)},
		{dataset.Str(""), dataset.Null(dataset.String), dataset.Num(1e6)},
		{dataset.Str("SIGMOD"), dataset.Str("SIGMOD"), dataset.Null(dataset.Float)},
		{dataset.Str("İSTANBUL Straße"), dataset.Str("Straße"), dataset.Num(3.5)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

// allPairs returns every ordered pair of t's tuples, self-pairs included.
func allPairs(t *dataset.Table) []Pair {
	var out []Pair
	for a := 0; a < t.NumRows(); a++ {
		for b := 0; b < t.NumRows(); b++ {
			out = append(out, Pair{A: t.ID(a), B: t.ID(b)})
		}
	}
	return out
}

// TestFeaturesOfBitIdentical holds the batch feature path to the
// per-pair reference on every feature of every pair, compared by bits.
func TestFeaturesOfBitIdentical(t *testing.T) {
	type batchCase struct {
		name  string
		table *dataset.Table
		pairs func(*dataset.Table) []Pair
	}
	variants := variantsTable()
	cases := []batchCase{
		{"variants/all-ordered-pairs", variants, allPairs},
		{"variants/vanished-tuple", variants, func(t *dataset.Table) []Pair {
			return []Pair{{A: variants.ID(0), B: 999}, {A: variants.ID(1), B: variants.ID(2)}, {A: 999, B: variants.ID(3)}}
		}},
		{"variants/one-pair", variants, func(t *dataset.Table) []Pair {
			return []Pair{{A: variants.ID(3), B: variants.ID(7)}}
		}},
		{"variants/repeated-pair", variants, func(t *dataset.Table) []Pair {
			p := Pair{A: variants.ID(2), B: variants.ID(7)}
			return []Pair{p, {A: variants.ID(7), B: variants.ID(2)}, p, p}
		}},
		{"variants/empty-batch", variants, func(t *dataset.Table) []Pair { return nil }},
	}
	for _, g := range []struct {
		name string
		gen  func(datagen.Config) *datagen.Dataset
	}{{"D1", datagen.D1}, {"D2", datagen.D2}, {"D3", datagen.D3}} {
		d := g.gen(datagen.Config{Scale: 0.01, Seed: 1})
		cases = append(cases, batchCase{g.name + "/candidates", d.Dirty, func(t *dataset.Table) []Pair {
			return Candidates(t, BlockingConfig{KeyColumns: d.KeyColumns})
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					fe := NewFeatureExtractor(c.table)
					pairs := c.pairs(c.table)
					got := fe.FeaturesOf(c.table, pairs, workers)
					if len(got) != len(pairs) {
						t.Fatalf("%d vectors for %d pairs", len(got), len(pairs))
					}
					for i, p := range pairs {
						want := featuresRef(fe, c.table, p.A, p.B)
						if len(got[i]) != len(want) || cap(got[i]) != len(want) {
							t.Fatalf("pair %v: len %d cap %d, want both %d", p, len(got[i]), cap(got[i]), len(want))
						}
						for k := range want {
							if math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
								t.Fatalf("pair %v feature %d = %v, reference %v", p, k, got[i][k], want[k])
							}
						}
					}
					if len(pairs) == 1 {
						one := fe.Features(c.table, pairs[0].A, pairs[0].B)
						for k := range one {
							if math.Float64bits(one[k]) != math.Float64bits(got[0][k]) {
								t.Fatalf("Features feature %d = %v, FeaturesOf %v", k, one[k], got[0][k])
							}
						}
					}
					checkProbsOf(t, c.table, pairs, got, workers)
				})
			}
		})
	}
}

// checkProbsOf holds Matcher.ProbsOf to ProbWithFeatures pair by pair,
// for the heuristic and, when the labels give both classes, the trained
// forest. About a dozen pairs spread over the batch are labeled,
// alternating match and non-match, so labeled and unlabeled pairs both
// occur.
func checkProbsOf(t *testing.T, tbl *dataset.Table, pairs []Pair, feats [][]float64, workers int) {
	t.Helper()
	cfg := rf.DefaultConfig()
	cfg.Workers = workers
	m := NewMatcher(tbl, cfg)
	check := func(stage string) {
		got := make([]float64, len(pairs))
		m.ProbsOf(pairs, feats, got)
		for i, p := range pairs {
			if want := m.ProbWithFeatures(p, feats[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: ProbsOf pair %v = %v, ProbWithFeatures %v", stage, p, got[i], want)
			}
		}
	}
	check("heuristic")
	for n, i := 0, 0; i < len(pairs); n, i = n+1, i+len(pairs)/12+1 {
		m.AddLabel(pairs[i], n%2 == 0)
	}
	if err := m.Train(tbl); err != nil {
		t.Fatal(err)
	}
	check("labeled")
}

// TestFeaturesOfVectorsDoNotAlias checks that appending to one vector of
// a batch leaves its neighbour intact, though they share a backing array.
func TestFeaturesOfVectorsDoNotAlias(t *testing.T) {
	tbl := pubsTable(t)
	fe := NewFeatureExtractor(tbl)
	pairs := []Pair{{A: tbl.ID(0), B: tbl.ID(1)}, {A: tbl.ID(2), B: tbl.ID(3)}}
	got := fe.FeaturesOf(tbl, pairs, 1)
	next := append([]float64(nil), got[1]...)
	_ = append(got[0], -1, -1, -1)
	for k := range next {
		if math.Float64bits(got[1][k]) != math.Float64bits(next[k]) {
			t.Fatalf("appending to vector 0 changed vector 1 at %d: %v → %v", k, next[k], got[1][k])
		}
	}
}

// BenchmarkFeaturesOf times feature extraction for every blocking
// candidate of D1 at scale 0.07, the analyst-d1 benchmark workload's
// table, sequentially and at GOMAXPROCS workers.
func BenchmarkFeaturesOf(b *testing.B) {
	d := datagen.D1(datagen.Config{Scale: 0.07, Seed: 1})
	pairs := Candidates(d.Dirty, BlockingConfig{KeyColumns: d.KeyColumns})
	fe := NewFeatureExtractor(d.Dirty)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFeats = fe.FeaturesOf(d.Dirty, pairs, workers)
			}
		})
	}
}

var benchFeats [][]float64
