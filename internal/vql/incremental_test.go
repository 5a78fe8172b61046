package vql

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// incSchema is the row shape the incremental-executor tests use.
var incSchema = dataset.Schema{
	{Name: "Venue", Kind: dataset.String},
	{Name: "Year", Kind: dataset.Float},
	{Name: "Citations", Kind: dataset.Float},
}

func incRow(rank int64, venue string, year, cites dataset.Value) IncRow {
	return IncRow{Rank: rank, Vals: []dataset.Value{dataset.Str(venue), year, cites}}
}

// applyDelta materializes the delta the incremental executor evaluates
// into a plain table, in ascending rank order — the reference Execute
// runs over it.
func applyDelta(t *testing.T, base []IncRow, removed []int64, added []IncRow) *dataset.Table {
	t.Helper()
	rm := map[int64]bool{}
	for _, r := range removed {
		rm[r] = true
	}
	var rows []IncRow
	for _, r := range base {
		if !rm[r.Rank] {
			rows = append(rows, r)
		}
	}
	rows = append(rows, added...)
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].Rank < rows[i].Rank {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	tbl := dataset.NewTable(incSchema)
	for _, r := range rows {
		tbl.MustAppend(r.Vals)
	}
	return tbl
}

// assertSameData requires bit-exact equality — the incremental
// executor's whole contract.
func assertSameData(t *testing.T, label string, got, want *vis.Data) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: point counts differ: got %d want %d\ngot  %+v\nwant %+v",
			label, len(got.Points), len(want.Points), got.Points, want.Points)
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("%s: point %d differs: got %+v want %+v", label, i, got.Points[i], want.Points[i])
		}
	}
}

// checkDelta runs one (removed, added) delta through Eval and through
// Execute-over-the-equivalent-table and compares.
func checkDelta(t *testing.T, q *Query, base []IncRow, removed []int64, added []IncRow) {
	t.Helper()
	inc, err := q.NewIncremental(incSchema, base)
	if err != nil {
		t.Fatal(err)
	}
	got := inc.Eval(removed, added)
	want, err := q.Execute(applyDelta(t, base, removed, added))
	if err != nil {
		t.Fatal(err)
	}
	assertSameData(t, fmt.Sprintf("removed=%v added=%d", removed, len(added)), got, want)
}

func incBase() []IncRow {
	num := dataset.Num
	null := dataset.Null(dataset.Float)
	return []IncRow{
		incRow(0, "SIGMOD", num(2013), num(174)),
		incRow(2, "ICDE", num(2013), num(15)),
		incRow(5, "SIGMOD", num(2014), null),
		incRow(6, "VLDB", num(2014), num(55)),
		incRow(9, "ICDE", num(2015), num(42)),
		incRow(12, "KDD", num(2015), num(7)),
	}
}

var incQueries = []string{
	`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`,
	`VISUALIZE bar SELECT Venue, AVG(Citations) FROM D TRANSFORM GROUP BY Venue SORT X BY ASC`,
	`VISUALIZE bar SELECT Venue, COUNT(Citations) FROM D TRANSFORM GROUP BY Venue`,
	`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue WHERE Year >= 2014 SORT Y BY DESC`,
	`VISUALIZE bar SELECT Year, SUM(Citations) FROM D TRANSFORM BIN Year BY INTERVAL 1`,
	`VISUALIZE bar SELECT Year, Citations FROM D`,
	`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 2`,
}

// TestIncrementalEvalMatchesExecute sweeps deltas — removals, additions,
// new groups, emptied groups, rank reuse, null cells — across query
// shapes and compares every chart bit for bit.
func TestIncrementalEvalMatchesExecute(t *testing.T) {
	num := dataset.Num
	null := dataset.Null(dataset.Float)
	deltas := []struct {
		name    string
		removed []int64
		added   []IncRow
	}{
		{name: "noop"},
		{name: "remove-one", removed: []int64{2}},
		{name: "remove-all-of-group", removed: []int64{2, 9}},
		{name: "remove-everything", removed: []int64{0, 2, 5, 6, 9, 12}},
		{name: "add-new-group", added: []IncRow{incRow(3, "CIDR", num(2013), num(9))}},
		{name: "add-to-existing-group", added: []IncRow{incRow(13, "VLDB", num(2016), num(3))}},
		{name: "add-before-first", added: []IncRow{incRow(-1, "AAAI", num(2012), num(1))}},
		{name: "replace-same-rank", removed: []int64{5}, added: []IncRow{incRow(5, "SIGMOD", num(2014), num(100))}},
		{name: "merge-two-rows", removed: []int64{0, 5}, added: []IncRow{incRow(0, "SIGMOD", num(2013), num(274))}},
		{name: "null-added", added: []IncRow{incRow(7, "VLDB", num(2014), null)}},
		{name: "group-rename", removed: []int64{6}, added: []IncRow{incRow(6, "Very Large Data Bases", num(2014), num(55))}},
		{name: "reorder-first-appearance", removed: []int64{0}, added: []IncRow{incRow(10, "SIGMOD", num(2013), num(174))}},
	}
	for _, src := range incQueries {
		q := MustParse(src)
		for _, d := range deltas {
			t.Run(fmt.Sprintf("%s/%s", q.Chart, d.name), func(t *testing.T) {
				checkDelta(t, q, incBase(), d.removed, d.added)
			})
		}
	}
}

// TestIncrementalBaseMatchesExecute checks the zero-delta chart equals a
// straight execution of the base rows.
func TestIncrementalBaseMatchesExecute(t *testing.T) {
	for _, src := range incQueries {
		q := MustParse(src)
		inc, err := q.NewIncremental(incSchema, incBase())
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Execute(applyDelta(t, incBase(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		assertSameData(t, src, inc.Base(), want)
	}
}

// TestIncrementalBaseFastPath pins the empty-delta shortcut's
// bit-identity against the general path. Eval with an unknown removed
// rank takes the allocating walk but produces the same chart (no group
// is dirtied), so the two paths can be compared point for point.
func TestIncrementalBaseFastPath(t *testing.T) {
	for _, src := range incQueries {
		q := MustParse(src)
		inc, err := q.NewIncremental(incSchema, incBase())
		if err != nil {
			t.Fatal(err)
		}
		fast := inc.Base()
		slow := inc.Eval([]int64{-999}, nil) // unknown rank: no-op delta, general path
		assertSameData(t, src, fast, slow)

		// The fast path must hand out an independent copy: mutating one
		// result must not leak into the next.
		if len(fast.Points) > 0 {
			fast.Points[0].Y += 1e6
			again := inc.Base()
			assertSameData(t, src+" after mutation", again, slow)
		}
	}
}

// TestIncrementalBaseAllocs pins the empty-delta shortcut's allocation
// budget: one vis.Data plus one point-slice copy. The general path
// allocates the dirty/folded maps and the live slice every call; this
// test is what keeps the Base() hot path from quietly regressing to it.
func TestIncrementalBaseAllocs(t *testing.T) {
	q := MustParse(incQueries[0])
	inc, err := q.NewIncremental(incSchema, incBase())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if data := inc.Eval(nil, nil); data == nil {
			t.Fatal("nil chart")
		}
	})
	if allocs > 2 {
		t.Fatalf("Eval(nil, nil) allocates %.0f objects per call, want ≤ 2", allocs)
	}
}

// TestIncrementalLimitTopKChurn targets the Limit+sortPoints seam the
// multi-view pricer leans on: deltas that push a dirty group out of the
// top-K, pull one in from below the cut, or reshuffle a tie exactly at
// the boundary. Every case is checked bit-identical against Execute
// over the equivalent table.
func TestIncrementalLimitTopKChurn(t *testing.T) {
	num := dataset.Num
	// Base sums (SUM Citations, DESC): SIGMOD=174, ICDE=57, VLDB=55, KDD=7.
	deltas := []struct {
		name    string
		removed []int64
		added   []IncRow
	}{
		// The leader shrinks to last place and drops below the cut.
		{name: "leader-drops-out", removed: []int64{0}, added: []IncRow{incRow(0, "SIGMOD", num(2013), num(1))}},
		// A below-cut group is boosted past the boundary and enters.
		{name: "tail-enters", added: []IncRow{incRow(13, "KDD", num(2016), num(500))}},
		// Both at once: the displaced and the promoted swap slots.
		{name: "swap-across-boundary", removed: []int64{2, 9}, added: []IncRow{
			incRow(2, "ICDE", num(2013), num(1)),
			incRow(13, "KDD", num(2016), num(400)),
		}},
		// A dirty group lands exactly on a boundary tie (VLDB 55 → 57 =
		// ICDE): ordering must match Execute's tiebreak, not map order.
		{name: "tie-at-boundary", added: []IncRow{incRow(14, "VLDB", num(2016), num(2))}},
		// A new group is born directly inside the top-K.
		{name: "new-group-enters", added: []IncRow{incRow(3, "CIDR", num(2013), num(999))}},
		// The boundary group is emptied outright; the next one moves up.
		{name: "boundary-group-vanishes", removed: []int64{2, 9}},
	}
	for _, limit := range []int{1, 2, 3} {
		src := fmt.Sprintf(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT %d`, limit)
		q := MustParse(src)
		for _, d := range deltas {
			t.Run(fmt.Sprintf("limit%d/%s", limit, d.name), func(t *testing.T) {
				checkDelta(t, q, incBase(), d.removed, d.added)
			})
		}
	}
	// Ascending sort flips which end of the order the cut falls on.
	for _, d := range deltas {
		q := MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY ASC LIMIT 2`)
		t.Run("asc-limit2/"+d.name, func(t *testing.T) {
			checkDelta(t, q, incBase(), d.removed, d.added)
		})
	}
}

// TestIncrementalRejectsUnsortedRanks guards the registration contract.
func TestIncrementalRejectsUnsortedRanks(t *testing.T) {
	q := MustParse(incQueries[0])
	rows := []IncRow{
		incRow(5, "A", dataset.Num(2013), dataset.Num(1)),
		incRow(5, "B", dataset.Num(2013), dataset.Num(2)),
	}
	if _, err := q.NewIncremental(incSchema, rows); err == nil {
		t.Fatal("duplicate ranks accepted")
	}
}

// TestNaNMarksSortLast pins where the chart order puts NaN marks (+Inf
// and -Inf in one SUM): after every number, ±Inf included, in both SORT
// directions, tied with each other and so ordered by label, and first
// to go at a LIMIT cut. The NaN groups appear first and their labels
// sort before every other label, so an order that let NaN compare equal
// to everything would leave them in front. Execute and the incremental
// base chart must both place them there, and so must an Eval whose
// delta turns the -Inf group e into a third NaN mark.
func TestNaNMarksSortLast(t *testing.T) {
	num := dataset.Num
	inf := math.Inf(1)
	rows := []IncRow{
		incRow(0, "B", num(1), num(inf)),
		incRow(1, "A", num(1), num(-inf)),
		incRow(2, "c", num(1), num(3)),
		incRow(3, "B", num(1), num(-inf)),
		incRow(4, "d", num(1), num(inf)),
		incRow(5, "e", num(1), num(-inf)),
		incRow(6, "A", num(1), num(inf)),
		incRow(7, "f", num(1), num(1)),
	}
	added := []IncRow{incRow(8, "e", num(1), num(inf))}
	for _, tc := range []struct {
		order       string
		limit       int
		base, delta []string
	}{
		{"ASC", 0, []string{"e", "f", "c", "d", "A", "B"}, []string{"f", "c", "d", "A", "B", "e"}},
		{"DESC", 0, []string{"d", "c", "f", "e", "A", "B"}, []string{"d", "c", "f", "A", "B", "e"}},
		{"ASC", 5, []string{"e", "f", "c", "d", "A"}, []string{"f", "c", "d", "A", "B"}},
		{"DESC", 4, []string{"d", "c", "f", "e"}, []string{"d", "c", "f", "A"}},
	} {
		src := fmt.Sprintf(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY %s`, tc.order)
		if tc.limit > 0 {
			src += fmt.Sprintf(" LIMIT %d", tc.limit)
		}
		q := MustParse(src)
		exec, err := q.Execute(applyDelta(t, rows, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		execDelta, err := q.Execute(applyDelta(t, rows, nil, added))
		if err != nil {
			t.Fatal(err)
		}
		inc, err := q.NewIncremental(incSchema, rows)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, c := range []struct {
			name string
			data *vis.Data
			want []string
			nan  string // labels of the NaN marks
		}{
			{"Execute", exec, tc.base, "AB"},
			{"Base", inc.Base(), tc.base, "AB"},
			{"Execute after delta", execDelta, tc.delta, "ABe"},
			{"Eval", inc.Eval(nil, added), tc.delta, "ABe"},
		} {
			var labels []string
			for _, p := range c.data.Points {
				labels = append(labels, p.Label)
				if math.IsNaN(p.Y) != strings.Contains(c.nan, p.Label) {
					t.Errorf("%s, %s: mark %s has Y %v", src, c.name, p.Label, p.Y)
				}
			}
			if !slices.Equal(labels, c.want) {
				t.Errorf("%s, %s: chart order %v, want %v", src, c.name, labels, c.want)
			}
		}
	}
}
