package em

import (
	"fmt"
	"reflect"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
)

// TestCandidateIndexMatchesScans verifies the inverted index against the
// linear scans it replaces, on a hand-built table and on D1, D2 and D3 at
// scale 0.01 (seeds 1–3) with their blocking candidates: for every tuple
// the positions of the candidates touching it, in list order, and for
// every candidate its own position; and, in every string column, for
// the differing value pairs candidates show, for pairs no candidate
// shows, for equal values and for values absent from the table, the
// first candidate in list order whose endpoints carry the two values,
// asked in either order.
func TestCandidateIndexMatchesScans(t *testing.T) {
	pubs := pubsTable(t)
	t.Run("pubs", func(t *testing.T) {
		checkCandidateIndex(t, pubs, Candidates(pubs, BlockingConfig{KeyColumns: []int{0}}))
	})
	for _, g := range []struct {
		name string
		gen  func(datagen.Config) *datagen.Dataset
	}{{"D1", datagen.D1}, {"D2", datagen.D2}, {"D3", datagen.D3}} {
		for seed := int64(1); seed <= 3; seed++ {
			d := g.gen(datagen.Config{Scale: 0.01, Seed: seed})
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				checkCandidateIndex(t, d.Dirty, Candidates(d.Dirty, BlockingConfig{KeyColumns: d.KeyColumns}))
			})
		}
	}
}

func checkCandidateIndex(t *testing.T, tbl *dataset.Table, cands []Pair) {
	t.Helper()
	if len(cands) == 0 {
		t.Fatal("no blocking candidates")
	}
	ix := NewCandidateIndex(tbl, cands)

	// Incident lists and positions, against one scan of the list.
	incident := map[dataset.TupleID][]int32{}
	for i, p := range cands {
		incident[p.A] = append(incident[p.A], int32(i))
		incident[p.B] = append(incident[p.B], int32(i))
	}
	var maxID dataset.TupleID
	for r := 0; r < tbl.NumRows(); r++ {
		id := tbl.ID(r)
		maxID = max(maxID, id)
		if got, want := ix.Incident(id), incident[id]; !reflect.DeepEqual(got, want) {
			t.Fatalf("Incident(%d) = %v, want %v", id, got, want)
		}
	}
	for _, id := range []dataset.TupleID{-1, maxID + 1, maxID + 9999} {
		if got := ix.Incident(id); got != nil {
			t.Fatalf("Incident(%d) outside the table = %v", id, got)
		}
	}
	for i, p := range cands {
		if got, ok := ix.Find(p); !ok || got != i {
			t.Fatalf("Find(%v) = %d, %v; want %d", p, got, ok, i)
		}
	}
	if _, ok := ix.Find(MakePair(maxID+1, maxID+2)); ok {
		t.Fatal("Find on a non-candidate pair hit")
	}

	// Value pairs, per string column, against the first candidate in
	// list order whose endpoints carry two differing values.
	found, missed := 0, 0
	for c, col := range tbl.Schema() {
		if col.Kind != dataset.String {
			continue
		}
		rowsOf := map[string][]int{}
		var vals []string
		for r := 0; r < tbl.NumRows(); r++ {
			if txt, ok := tbl.Get(r, c).Text(); ok {
				if _, seen := rowsOf[txt]; !seen {
					vals = append(vals, txt)
				}
				rowsOf[txt] = append(rowsOf[txt], r)
			}
		}
		text := func(id dataset.TupleID) (string, bool) {
			v, ok := tbl.GetByID(id, c)
			if !ok {
				return "", false
			}
			return v.Text()
		}
		first := map[[2]string]Pair{}
		for _, p := range cands {
			a, okA := text(p.A)
			b, okB := text(p.B)
			if !okA || !okB || a == b {
				continue
			}
			key := [2]string{min(a, b), max(a, b)}
			if _, dup := first[key]; !dup {
				first[key] = p
			}
		}
		check := func(v1, v2 string) {
			want, wantOK := first[[2]string{min(v1, v2), max(v1, v2)}]
			got, ok := ix.PairForValues(c, v1, v2, rowsOf[v1], rowsOf[v2])
			if ok != wantOK || got != want {
				t.Fatalf("column %s: PairForValues(%q, %q) = %v, %v; want %v, %v", col.Name, v1, v2, got, ok, want, wantOK)
			}
			if ok {
				found++
			} else {
				missed++
			}
		}
		for key := range first {
			check(key[0], key[1])
			check(key[1], key[0])
		}
		for i := 0; i < len(vals) && i < 40; i++ {
			for j := i; j < len(vals) && j < 40; j++ {
				check(vals[i], vals[j])
				check(vals[j], vals[i])
			}
			check(vals[i], "no-such value")
			check("no-such value", vals[i])
		}
		check("no-such", "values")
	}
	if found == 0 || missed == 0 {
		t.Fatalf("value-pair lookups found %d and missed %d; the check needs both", found, missed)
	}
}
