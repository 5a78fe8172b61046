package knn

import (
	"slices"
	"sync"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
)

func testTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Title", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Citations", Kind: dataset.Float},
	})
	rows := [][]dataset.Value{
		{dataset.Str("NADEEF data cleaning"), dataset.Str("SIGMOD"), dataset.Num(174)},
		{dataset.Str("NADEEF data cleaning"), dataset.Str("SIGMOD Conf"), dataset.Num(1740)},
		{dataset.Str("SeeDB visual analytics"), dataset.Str("VLDB"), dataset.Null(dataset.Float)},
		{dataset.Str("Elaps time travel"), dataset.Str("ICDE"), dataset.Num(42)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func TestNearestRankingAndSelfExclusion(t *testing.T) {
	ix := NewIndex(testTable(t), 2)
	ns := ix.Nearest(0, 3, nil)
	if len(ns) != 3 {
		t.Fatalf("expected 3 neighbours, got %d", len(ns))
	}
	// Row 1 shares all tokens except the venue suffix — must rank first.
	if ns[0].Row != 1 {
		t.Fatalf("nearest to row 0 is row %d, want 1 (%+v)", ns[0].Row, ns)
	}
	for _, n := range ns {
		if n.Row == 0 {
			t.Fatal("Nearest returned the probe row itself")
		}
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Sim > ns[i-1].Sim {
			t.Fatalf("neighbours not in descending similarity: %+v", ns)
		}
	}
}

func TestNearestAcceptFilter(t *testing.T) {
	tbl := testTable(t)
	ix := NewIndex(tbl, 2)
	// The imputer's filter: only rows with a usable measure value.
	hasY := func(i int) bool {
		_, ok := tbl.Get(i, 2).Float()
		return ok
	}
	for _, n := range ix.Nearest(0, 10, hasY) {
		if n.Row == 2 {
			t.Fatal("rejected row returned")
		}
	}
}

func TestSkipColExcludedFromTokens(t *testing.T) {
	ix := NewIndex(testTable(t), 2)
	for row := 0; row < 4; row++ {
		for _, tok := range ix.Tokens(row) {
			if tok == "174" || tok == "1740" || tok == "42" {
				t.Fatalf("row %d tokens include measure value %q", row, tok)
			}
		}
	}
	if ix.SkipCol() != 2 {
		t.Fatalf("SkipCol = %d", ix.SkipCol())
	}
}

func TestNearestTruncatesToK(t *testing.T) {
	ix := NewIndex(testTable(t), 2)
	if got := len(ix.Nearest(0, 2, nil)); got != 2 {
		t.Fatalf("k=2 returned %d neighbours", got)
	}
	if got := len(ix.Nearest(0, 0, nil)); got != 3 {
		t.Fatalf("k=0 (unbounded) returned %d neighbours", got)
	}
}

// TestInsertNeighbor pins the bounded top-k buffer that Nearest and the
// pipeline's neighbour-cache maintenance share: insertion keeps
// (descending sim, ascending id) order and the k cap, and reports
// whether the list changed.
func TestInsertNeighbor(t *testing.T) {
	ns := []Neighbor{{Row: 1, ID: 1, Sim: 0.9}, {Row: 2, ID: 2, Sim: 0.5}, {Row: 3, ID: 3, Sim: 0.3}}

	got, ins := Insert(append([]Neighbor(nil), ns...), Neighbor{Row: 4, ID: 4, Sim: 0.7}, 3)
	if !ins || len(got) != 3 || got[1].ID != 4 || got[2].ID != 2 {
		t.Fatalf("mid insert: %+v", got)
	}
	got, ins = Insert(append([]Neighbor(nil), ns...), Neighbor{Row: 4, ID: 4, Sim: 0.1}, 3)
	if ins || len(got) != 3 {
		t.Fatalf("below-cap value inserted: %+v", got)
	}
	got, ins = Insert(append([]Neighbor(nil), ns...), Neighbor{Row: 0, ID: 0, Sim: 0.5}, 3)
	if !ins || got[1].ID != 0 || got[2].ID != 2 {
		t.Fatalf("tie broken wrong: %+v", got)
	}
	got, ins = Insert(ns[:2:2], Neighbor{Row: 4, ID: 4, Sim: 0.1}, 3)
	if !ins || len(got) != 3 || got[2].ID != 4 {
		t.Fatalf("under-capacity append: %+v", got)
	}
	got, ins = Insert(append([]Neighbor(nil), ns...), Neighbor{Row: 4, ID: 4, Sim: 0.1}, 0)
	if !ins || len(got) != 4 || got[3].ID != 4 {
		t.Fatalf("unbounded append: %+v", got)
	}
}

// TestNearestConcurrentFirstUse: bounded searches racing on a fresh
// index, the first of which builds its postings, and again after a
// ResetRows dropped them, return what the full scan returns. Under
// -race it holds the lazy build to the index's contract: concurrent
// Nearest calls are safe between mutations.
func TestNearestConcurrentFirstUse(t *testing.T) {
	tbl := datagen.D1(datagen.Config{Scale: 0.01, Seed: 1}).Dirty
	y := tbl.ColumnIndex("Citations")
	accept := func(i int) bool {
		_, ok := tbl.Get(i, y).Float()
		return ok
	}
	ix := NewIndex(tbl, y)
	check := func(what string) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := w; r < tbl.NumRows(); r += 4 {
					if got, want := ix.Nearest(r, 5, accept), ix.scan(r, 5, accept); !slices.Equal(got, want) {
						t.Errorf("%s: Nearest(%d, 5) = %+v, full scan %+v", what, r, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	check("fresh")
	ix.ResetRows([]int{0, 1, 2})
	check("after ResetRows")
}
