package knn

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// refTokens and refNearest are the string-set kNN the id index
// replaced: every row's token set as a map, JaccardSets against every
// accepted row, one full sort, truncation to k. FuzzNearest holds
// Nearest to them bit for bit.
func refTokens(t *dataset.Table, skipCol int, canon Canon) []map[string]struct{} {
	sets := make([]map[string]struct{}, t.NumRows())
	for r := range sets {
		sets[r] = map[string]struct{}{}
		for c := 0; c < t.NumCols(); c++ {
			if c == skipCol {
				continue
			}
			text := t.Get(r, c).String()
			if canon != nil {
				text = canon(c, t.Get(r, c))
			}
			for _, tok := range stringsim.Tokenize(text) {
				sets[r][tok] = struct{}{}
			}
		}
	}
	return sets
}

func refNearest(t *dataset.Table, sets []map[string]struct{}, row, k int, accept func(int) bool) []Neighbor {
	var cands []Neighbor
	for i := range sets {
		if i == row || (accept != nil && !accept(i)) {
			continue
		}
		cands = append(cands, Neighbor{Row: i, ID: t.ID(i), Sim: stringsim.JaccardSets(sets[row], sets[i])})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Sim != cands[b].Sim {
			return cands[a].Sim > cands[b].Sim
		}
		return cands[a].ID < cands[b].ID
	})
	if k > 0 && len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// fuzzTable builds a table from the fuzz input: one row per line of
// spec (at most 12), cells "title|venue|year" where "~" is a null and a
// year that does not parse is a null too, plus a Citations measure
// column that is null in row r when bit r of nullY is set.
func fuzzTable(spec string, nullY uint16) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Title", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Year", Kind: dataset.Float},
		{Name: "Citations", Kind: dataset.Float},
	})
	lines := strings.Split(spec, "\n")
	if len(lines) > 12 {
		lines = lines[:12]
	}
	for r, line := range lines {
		cells := strings.SplitN(line, "|", 3)
		for len(cells) < 3 {
			cells = append(cells, "")
		}
		row := make([]dataset.Value, 4)
		for c := 0; c < 2; c++ {
			row[c] = dataset.Str(cells[c])
			if cells[c] == "~" {
				row[c] = dataset.Null(dataset.String)
			}
		}
		row[2] = dataset.Null(dataset.Float)
		if y, err := strconv.ParseFloat(cells[2], 64); err == nil {
			row[2] = dataset.Num(y)
		}
		row[3] = dataset.Num(float64(10 * r))
		if nullY&(1<<r) != 0 {
			row[3] = dataset.Null(dataset.Float)
		}
		tbl.MustAppend(row)
	}
	return tbl
}

func checkNearest(t *testing.T, what string, tbl *dataset.Table, ix *Index, sets []map[string]struct{}, accept func(int) bool) {
	t.Helper()
	for r := 0; r < tbl.NumRows(); r++ {
		for _, k := range []int{1, 5, tbl.NumRows()} {
			got, want := ix.Nearest(r, k, accept), refNearest(tbl, sets, r, k, accept)
			if len(got) != len(want) {
				t.Fatalf("%s: Nearest(%d, %d) = %+v, reference %+v", what, r, k, got, want)
			}
			for i := range got {
				if got[i].Row != want[i].Row || got[i].ID != want[i].ID ||
					math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
					t.Fatalf("%s: Nearest(%d, %d)[%d] = %+v, reference %+v", what, r, k, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzNearest checks the id-set index against the string-set reference
// on small tables with empty, null, duplicated and non-ASCII cells: every
// row's Nearest for k ∈ {1, 5, rows}, compared by Row, ID and the bits
// of Sim. It queries a private index and one bound to a Base, which
// builds their postings, then approves a synonym (synonym is "from=to")
// through a Canon and checks that ResetRows brings every row's tokens
// and neighbours on both to a fresh NewIndexCanon's, so postings left
// stale by ResetRows would show, while the Base stays as NewBase builds
// it.
func FuzzNearest(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, nullY uint16, synonym string) {
		tbl := fuzzTable(spec, nullY)
		const skip = 3
		accept := func(i int) bool {
			_, ok := tbl.Get(i, skip).Float()
			return ok
		}
		checkNearest(t, "raw", tbl, NewIndex(tbl, skip), refTokens(tbl, skip, nil), accept)
		checkNearest(t, "raw, all rows", tbl, NewIndex(tbl, skip), refTokens(tbl, skip, nil), nil)

		from, to, _ := strings.Cut(synonym, "=")
		approved := false
		canon := func(col int, v dataset.Value) string {
			if txt, ok := v.Text(); ok && col == 1 && approved && txt == from {
				return to
			}
			return v.String()
		}
		base := NewBase(tbl, skip)
		private := NewIndexCanon(tbl, skip, canon)
		bound := base.Bind(tbl, canon)
		rawSets := refTokens(tbl, skip, nil)
		checkNearest(t, "private", tbl, private, rawSets, accept)
		checkNearest(t, "bound", tbl, bound, rawSets, accept)
		approved = true
		var rows []int
		for r := 0; r < tbl.NumRows(); r++ {
			if txt, ok := tbl.Get(r, 1).Text(); ok && txt == from {
				rows = append(rows, r)
			}
		}
		private.ResetRows(rows)
		bound.ResetRows(rows)

		fresh := NewIndexCanon(tbl, skip, canon)
		sets := refTokens(tbl, skip, canon)
		for r := 0; r < tbl.NumRows(); r++ {
			want := fresh.Tokens(r)
			if got := private.Tokens(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d: ResetRows tokens %q, fresh index %q", r, got, want)
			}
			if got := bound.Tokens(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d: bound ResetRows tokens %q, fresh index %q", r, got, want)
			}
		}
		checkNearest(t, "reset", tbl, private, sets, accept)
		checkNearest(t, "bound reset", tbl, bound, sets, accept)
		if !reflect.DeepEqual(base, NewBase(tbl, skip)) {
			t.Fatal("ResetRows on a bound index wrote the shared Base")
		}
	})
}
