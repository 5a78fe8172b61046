package dataset

import "testing"

func overlayFixture(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable(pubsSchema())
	rows := [][]Value{
		{Str("NADEEF"), Str("ACM SIGMOD"), Num(174)},
		{Str("NADEEF"), Str("SIGMOD Conf."), Num(1740)},
		{Str("SeeDB"), Str("VLDB"), Null(Float)},
		{Str("SeeDB"), Str("Very Large Data Bases"), Num(55)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func TestOverlayBasics(t *testing.T) {
	tbl := overlayFixture(t)
	ov := tbl.Overlay()
	id := tbl.ID(0)
	if _, ok := ov.Patch(id, 2); ok {
		t.Fatal("fresh overlay has a patch")
	}
	if err := ov.Set(id, 2, Num(175)); err != nil {
		t.Fatal(err)
	}
	// Re-patching the same cell replaces the patch.
	if err := ov.Set(id, 2, Num(176)); err != nil {
		t.Fatal(err)
	}

	// The base table is untouched.
	if f, _ := tbl.Get(0, 2).Float(); f != 174 {
		t.Fatalf("base mutated: %v", f)
	}
	if v, ok := ov.Patch(id, 2); !ok || !v.Equal(Num(176)) {
		t.Fatalf("Patch = %v, %v", v, ok)
	}
	// Patch never reads the base: an unpatched cell has no patch.
	if _, ok := ov.Patch(id, 0); ok {
		t.Fatal("unpatched cell has a patch")
	}

	// Kind and id validation.
	if err := ov.Set(id, 2, Str("bad")); err == nil {
		t.Fatal("expected kind error")
	}
	for _, bad := range []TupleID{-1, TupleID(tbl.NumRows()), 9999} {
		if err := ov.Set(bad, 2, Num(1)); err == nil {
			t.Fatalf("Set(%d): expected missing-id error", bad)
		}
	}
}
