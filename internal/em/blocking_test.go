package em

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// candidatesRef is the blocking definition Candidates must reproduce:
// a per-pair set filled block by block, each block deduplicated through
// a per-block set, then one sort of the set by (A, B).
func candidatesRef(t *dataset.Table, cfg BlockingConfig) []Pair {
	maxBlock := cfg.MaxBlockSize
	if maxBlock <= 0 {
		maxBlock = DefaultMaxBlockSize
	}
	keyCols := cfg.KeyColumns
	if len(keyCols) == 0 {
		for c, col := range t.Schema() {
			if col.Kind == dataset.String {
				keyCols = []int{c}
				break
			}
		}
	}
	blocks := make(map[string][]dataset.TupleID)
	for i := 0; i < t.NumRows(); i++ {
		id := t.ID(i)
		for _, c := range keyCols {
			s, ok := t.Get(i, c).Text()
			if !ok {
				continue
			}
			for _, tok := range stringsim.Tokenize(s) {
				blocks[tok] = append(blocks[tok], id)
			}
		}
	}
	seen := make(map[Pair]struct{})
	for _, ids := range blocks {
		if len(ids) > maxBlock || len(ids) < 2 {
			continue
		}
		set := make(map[dataset.TupleID]struct{}, len(ids))
		var uniq []dataset.TupleID
		for _, id := range ids {
			if _, dup := set[id]; !dup {
				set[id] = struct{}{}
				uniq = append(uniq, id)
			}
		}
		for i := 0; i < len(uniq); i++ {
			for j := i + 1; j < len(uniq); j++ {
				seen[MakePair(uniq[i], uniq[j])] = struct{}{}
			}
		}
	}
	out := make([]Pair, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// keyTable builds a table of two string key columns and a numeric one
// from the given key cells; "<null>" is a null cell.
func keyTable(rows [][2]string) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "K1", Kind: dataset.String},
		{Name: "K2", Kind: dataset.String},
		{Name: "N", Kind: dataset.Float},
	})
	cell := func(s string) dataset.Value {
		if s == "<null>" {
			return dataset.Null(dataset.String)
		}
		return dataset.Str(s)
	}
	for i, r := range rows {
		tbl.MustAppend([]dataset.Value{cell(r[0]), cell(r[1]), dataset.Num(float64(i))})
	}
	return tbl
}

// randomKeyTable draws key cells of one to four tokens from a small
// vocabulary with mixed case and punctuation, so blocks of every size,
// in-cell repeats and tokens shared across the two key columns all
// occur; about one cell in eight is null or empty.
func randomKeyTable(rng *rand.Rand, n int) *dataset.Table {
	vocab := []string{"data", "Data", "base", "vldb", "icde", "sigmod", "the", "conf", "Straße", "straße", "x"}
	cellText := func() string {
		switch rng.Intn(16) {
		case 0:
			return "<null>"
		case 1:
			return ""
		}
		toks := make([]string, 1+rng.Intn(4))
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(toks, []string{" ", ", ", "-"}[rng.Intn(3)])
	}
	rows := make([][2]string, n)
	for i := range rows {
		rows[i] = [2]string{cellText(), cellText()}
	}
	return keyTable(rows)
}

// TestCandidatesMatchesReference holds Candidates to the per-pair set
// definition on hand-made edge cases, generated tables and D1–D3.
func TestCandidatesMatchesReference(t *testing.T) {
	type blockCase struct {
		name  string
		table *dataset.Table
		cfg   BlockingConfig
	}
	// Block "a": rows 0–2 once each and row 3 three times (twice in
	// one cell, once in the other column), so its raw list has six
	// entries for four tuples.
	repeats := keyTable([][2]string{
		{"a b", "c"}, {"a", "<null>"}, {"a", ""}, {"a a", "a"}, {"<null>", "b"}, {"", "c c"},
	})
	cases := []blockCase{
		{"repeats/both-columns", repeats, BlockingConfig{KeyColumns: []int{0, 1}}},
		{"repeats/one-column", repeats, BlockingConfig{KeyColumns: []int{0}}},
		{"repeats/default-column", repeats, BlockingConfig{}},
		// Block "a"'s six raw entries are exactly the limit: kept.
		{"repeats/raw-block-at-limit", repeats, BlockingConfig{KeyColumns: []int{0, 1}, MaxBlockSize: 6}},
		// Four tuples, but six raw entries: over the limit only through
		// repeats, so the block is skipped.
		{"repeats/over-limit-through-repeats", repeats, BlockingConfig{KeyColumns: []int{0, 1}, MaxBlockSize: 5}},
		{"repeats/over-limit-one-column", repeats, BlockingConfig{KeyColumns: []int{0}, MaxBlockSize: 4}},
		{"all-null", keyTable([][2]string{{"<null>", ""}, {"", "<null>"}, {"<null>", "<null>"}}), BlockingConfig{KeyColumns: []int{0, 1}}},
		{"empty-table", keyTable(nil), BlockingConfig{KeyColumns: []int{0, 1}}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		cfg := BlockingConfig{KeyColumns: [][]int{{0}, {1}, {0, 1}, {1, 0}}[i%4], MaxBlockSize: rng.Intn(12)}
		cases = append(cases, blockCase{fmt.Sprintf("generated/%d", i), randomKeyTable(rng, 5+rng.Intn(40)), cfg})
	}
	for _, g := range []struct {
		name string
		gen  func(datagen.Config) *datagen.Dataset
	}{{"D1", datagen.D1}, {"D2", datagen.D2}, {"D3", datagen.D3}} {
		d := g.gen(datagen.Config{Scale: 0.01, Seed: 1})
		cases = append(cases, blockCase{g.name, d.Dirty, BlockingConfig{KeyColumns: d.KeyColumns}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Candidates(c.table, c.cfg)
			want := candidatesRef(c.table, c.cfg)
			if !slices.Equal(got, want) {
				t.Fatalf("Candidates = %v\nreference  %v", got, want)
			}
		})
	}
	// The limit cases must bite: rows 1 and 2 share only block "a",
	// so their pair appears at the limit and not over it.
	only := MakePair(repeats.ID(1), repeats.ID(2))
	if !slices.Contains(Candidates(repeats, BlockingConfig{KeyColumns: []int{0, 1}, MaxBlockSize: 6}), only) {
		t.Errorf("pair %v missing from a block at the limit", only)
	}
	if slices.Contains(Candidates(repeats, BlockingConfig{KeyColumns: []int{0, 1}, MaxBlockSize: 5}), only) {
		t.Errorf("pair %v from a block over the limit through repeats", only)
	}
}

// BenchmarkCandidates times blocking over D1 at scale 0.07, the
// analyst-d1 benchmark workload's table.
func BenchmarkCandidates(b *testing.B) {
	d := datagen.D1(datagen.Config{Scale: 0.07, Seed: 1})
	cfg := BlockingConfig{KeyColumns: d.KeyColumns}
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(Candidates(d.Dirty, cfg))
	}
	b.ReportMetric(float64(n), "candidates")
}
