package knn

import (
	"reflect"
	"slices"
	"testing"

	"visclean/internal/dataset"
)

// TestNewIndexCanonNilMatchesNewIndex pins the fallback: a nil Canon is
// the historical raw-token behaviour.
func TestNewIndexCanonNilMatchesNewIndex(t *testing.T) {
	tbl := testTable(t)
	a := NewIndex(tbl, 2)
	b := NewIndexCanon(tbl, 2, nil)
	for r := 0; r < tbl.NumRows(); r++ {
		if !reflect.DeepEqual(a.Tokens(r), b.Tokens(r)) {
			t.Fatalf("row %d tokens differ: %v vs %v", r, a.Tokens(r), b.Tokens(r))
		}
	}
}

// TestCanonAndResetRows drives the pipeline's standardization flow: the
// canon function changes what a cell tokenizes to, and ResetRows brings
// affected rows up to date with a from-scratch rebuild.
func TestCanonAndResetRows(t *testing.T) {
	tbl := testTable(t)
	synonyms := map[string]string{} // mutable, like a session's standardizers
	canon := func(col int, v dataset.Value) string {
		if txt, ok := v.Text(); ok && col == 1 {
			if c, ok := synonyms[txt]; ok {
				return c
			}
		}
		return v.String()
	}
	ix := NewIndexCanon(tbl, 2, canon)

	// Before any approval canon is the identity: raw tokens.
	raw := NewIndex(tbl, 2)
	for r := 0; r < tbl.NumRows(); r++ {
		if !reflect.DeepEqual(ix.Tokens(r), raw.Tokens(r)) {
			t.Fatalf("row %d: identity canon diverges from raw tokens", r)
		}
	}
	if !slices.Contains(ix.Tokens(1), "conf") {
		t.Fatal("row 1 should carry its raw venue token before the merge")
	}

	// Approve "SIGMOD Conf" → "SIGMOD" and reset the row carrying it.
	synonyms["SIGMOD Conf"] = "SIGMOD"
	ix.ResetRows([]int{1})

	fresh := NewIndexCanon(tbl, 2, canon)
	for r := 0; r < tbl.NumRows(); r++ {
		if !reflect.DeepEqual(ix.Tokens(r), fresh.Tokens(r)) {
			t.Fatalf("row %d: ResetRows diverges from rebuild: %v vs %v", r, ix.Tokens(r), fresh.Tokens(r))
		}
	}
	if slices.Contains(ix.Tokens(1), "conf") {
		t.Fatal("row 1 kept its pre-merge token after ResetRows")
	}

	// Rows 0 and 1 now share identical venue text; row 1 must become row
	// 0's perfect neighbour.
	ns := ix.Nearest(0, 1, nil)
	if len(ns) != 1 || ns[0].Row != 1 || ns[0].Sim != 1 {
		t.Fatalf("post-merge nearest to row 0 = %+v, want row 1 at sim 1", ns)
	}

	// Out-of-range rows are ignored, not a panic.
	ix.ResetRows([]int{-1, tbl.NumRows() + 5})
}
