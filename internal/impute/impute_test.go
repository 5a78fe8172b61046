package impute

import (
	"math"
	"testing"

	"visclean/internal/dataset"
)

func seedbTable(t testing.TB) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Title", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Citations", Kind: dataset.Float},
	})
	rows := [][]dataset.Value{
		{dataset.Str("SeeDB"), dataset.Str("VLDB"), dataset.Null(dataset.Float)},
		{dataset.Str("SeeDB"), dataset.Str("VLDB"), dataset.Num(55)},
		{dataset.Str("SeeDB"), dataset.Str("VLDB 2014"), dataset.Num(57)},
		{dataset.Str("Elaps"), dataset.Str("ICDE"), dataset.Num(42)},
		{dataset.Str("KuaFu"), dataset.Str("ICDE"), dataset.Num(15)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func TestSuggestForMissing(t *testing.T) {
	tbl := seedbTable(t)
	im := New(tbl, 2, 2)
	s, ok := im.SuggestFor(tbl.ID(0))
	if !ok {
		t.Fatal("no suggestion")
	}
	// Nearest two records are the other SeeDB rows -> mean(55, 57) = 56.
	if math.Abs(s.Value-56) > 1e-9 {
		t.Fatalf("suggested %v, want 56", s.Value)
	}
	if len(s.Neighbors) != 2 {
		t.Fatalf("neighbors = %v", s.Neighbors)
	}
	if s.Neighbors[0] != tbl.ID(1) && s.Neighbors[0] != tbl.ID(2) {
		t.Fatalf("unexpected nearest neighbor %v", s.Neighbors[0])
	}
}

func TestSuggestExcludesOwnYColumn(t *testing.T) {
	// A present-but-wrong Y value must not affect neighbour choice: two
	// otherwise-identical records must be nearest regardless of Y.
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Name", Kind: dataset.String},
		{Name: "Y", Kind: dataset.Float},
	})
	a := tbl.MustAppend([]dataset.Value{dataset.Str("alpha beta"), dataset.Num(99999)})
	tbl.MustAppend([]dataset.Value{dataset.Str("alpha beta"), dataset.Num(10)})
	tbl.MustAppend([]dataset.Value{dataset.Str("gamma delta"), dataset.Num(99999)})
	im := New(tbl, 1, 1)
	s, ok := im.SuggestFor(a)
	if !ok {
		t.Fatal("no suggestion")
	}
	if s.Value != 10 {
		t.Fatalf("suggestion = %v, want 10 (same-name neighbour)", s.Value)
	}
}

func TestSuggestForUnknownTuple(t *testing.T) {
	tbl := seedbTable(t)
	im := New(tbl, 2, 5)
	if _, ok := im.SuggestFor(dataset.TupleID(777)); ok {
		t.Fatal("unknown tuple should not produce a suggestion")
	}
}

func TestSuggestNoUsableNeighbors(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "N", Kind: dataset.String},
		{Name: "Y", Kind: dataset.Float},
	})
	a := tbl.MustAppend([]dataset.Value{dataset.Str("only"), dataset.Null(dataset.Float)})
	im := New(tbl, 1, 5)
	if _, ok := im.SuggestFor(a); ok {
		t.Fatal("suggestion from zero neighbours")
	}
	// All-null column.
	tbl.MustAppend([]dataset.Value{dataset.Str("other"), dataset.Null(dataset.Float)})
	im2 := New(tbl, 1, 5)
	if _, ok := im2.SuggestFor(a); ok {
		t.Fatal("suggestion despite all-null Y column")
	}
}

func TestDefaultK(t *testing.T) {
	tbl := seedbTable(t)
	im := New(tbl, 2, 0)
	if im.k != DefaultK {
		t.Fatalf("k = %d, want %d", im.k, DefaultK)
	}
	// Fewer neighbours than k: uses all of them.
	s, ok := im.SuggestFor(tbl.ID(0))
	if !ok || len(s.Neighbors) != 4 {
		t.Fatalf("suggestion = %+v ok=%v", s, ok)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "N", Kind: dataset.String},
		{Name: "Y", Kind: dataset.Float},
	})
	a := tbl.MustAppend([]dataset.Value{dataset.Str("x"), dataset.Null(dataset.Float)})
	tbl.MustAppend([]dataset.Value{dataset.Str("x"), dataset.Num(1)})
	tbl.MustAppend([]dataset.Value{dataset.Str("x"), dataset.Num(3)})
	im := New(tbl, 1, 1)
	s1, _ := im.SuggestFor(a)
	s2, _ := im.SuggestFor(a)
	if s1.Value != s2.Value || s1.Value != 1 {
		t.Fatalf("tie break nondeterministic or wrong: %v vs %v", s1.Value, s2.Value)
	}
}
