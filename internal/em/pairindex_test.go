package em

import (
	"reflect"
	"testing"

	"visclean/internal/dataset"
)

// TestCandidateIndexMatchesScans verifies the inverted index against the
// linear scans it replaces: for every (column, value pair) it returns
// the first candidate in list order exhibiting those values, for every
// tuple the positions of the candidates touching it, in list order, and
// for every candidate its own position.
func TestCandidateIndexMatchesScans(t *testing.T) {
	tbl := pubsTable(t)
	cands := Candidates(tbl, BlockingConfig{KeyColumns: []int{0}})
	if len(cands) == 0 {
		t.Fatal("no blocking candidates")
	}
	cols := []int{1} // Venue
	ix := NewCandidateIndex(tbl, cands, cols)

	// Incident lists: compare against a direct scan per endpoint.
	seenIDs := map[dataset.TupleID]bool{}
	for _, p := range cands {
		seenIDs[p.A] = true
		seenIDs[p.B] = true
	}
	for id := range seenIDs {
		var want []int32
		for i, p := range cands {
			if p.A == id || p.B == id {
				want = append(want, int32(i))
			}
		}
		got := ix.Incident(id)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Incident(%d) = %v, want %v", id, got, want)
		}
	}
	if got := ix.Incident(9999); got != nil {
		t.Errorf("Incident on untouched tuple = %v", got)
	}
	for i, p := range cands {
		if got, ok := ix.Find(p); !ok || got != i {
			t.Errorf("Find(%v) = %d, %v; want %d", p, got, ok, i)
		}
	}
	if _, ok := ix.Find(MakePair(9998, 9999)); ok {
		t.Error("Find on a non-candidate pair hit")
	}

	// Value-pair lookups: every differing value pair along a candidate
	// resolves to the first such candidate; same-value and unknown pairs
	// miss.
	for _, p := range cands {
		for _, c := range cols {
			va, _ := tbl.GetByID(p.A, c)
			vb, _ := tbl.GetByID(p.B, c)
			ta, okA := va.Text()
			tb, okB := vb.Text()
			if !okA || !okB || ta == tb {
				continue
			}
			got, ok := ix.PairForValues(c, ta, tb)
			if !ok {
				t.Fatalf("PairForValues(%d, %q, %q) missed", c, ta, tb)
			}
			// First in list order.
			var want Pair
			for _, q := range cands {
				wa, _ := tbl.GetByID(q.A, c)
				wb, _ := tbl.GetByID(q.B, c)
				sa, _ := wa.Text()
				sb, _ := wb.Text()
				if (sa == ta && sb == tb) || (sa == tb && sb == ta) {
					want = q
					break
				}
			}
			if got != want {
				t.Errorf("PairForValues(%d, %q, %q) = %v, want %v", c, ta, tb, got, want)
			}
			// Order-insensitive.
			if rev, ok := ix.PairForValues(c, tb, ta); !ok || rev != got {
				t.Errorf("PairForValues not symmetric for (%q, %q)", ta, tb)
			}
		}
	}
	if _, ok := ix.PairForValues(1, "SIGMOD", "SIGMOD"); ok {
		t.Error("identical values resolved to a pair")
	}
	if _, ok := ix.PairForValues(1, "no-such", "values"); ok {
		t.Error("unknown values resolved to a pair")
	}
}
