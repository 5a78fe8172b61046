package vql

import (
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
)

// BenchmarkIncrementalEval times one Eval over D1 at scale 0.07 (seed 1;
// 3,557 rows, one per tuple, ranked by tuple id: the committed relation
// of a session whose clusters are still singletons) for the two view
// shapes the D1 tasks price most: SUM by Venue LIMIT 10 and BIN Year.
// "OneGroup" re-prices one row's measure, as an M/O repair does;
// "MergeTwo" folds two rows of different venues into one under the
// smaller rank, as a must-link across two clusters does.
func BenchmarkIncrementalEval(b *testing.B) {
	d := datagen.D1(datagen.Config{Scale: 0.07, Seed: 1})
	tbl := d.Dirty
	schema := tbl.Schema()
	venue, cites := tbl.ColumnIndex("Venue"), tbl.ColumnIndex("Citations")
	rows := make([]IncRow, tbl.NumRows())
	for i := range rows {
		rows[i] = IncRow{Rank: int64(tbl.ID(i)), Vals: tbl.Row(i)}
	}
	// Two rows of different venues from the middle of the table.
	a := rows[len(rows)/2]
	bi := len(rows)/2 + 1
	for rows[bi].Vals[venue] == a.Vals[venue] {
		bi++
	}
	bRow := rows[bi]
	with := func(r IncRow, y dataset.Value) IncRow {
		vals := append([]dataset.Value(nil), r.Vals...)
		vals[cites] = y
		return IncRow{Rank: r.Rank, Vals: vals}
	}
	ya, _ := a.Vals[cites].Float()
	yb, _ := bRow.Vals[cites].Float()
	deltas := []struct {
		name    string
		removed []int64
		added   []IncRow
	}{
		{"OneGroup", []int64{a.Rank}, []IncRow{with(a, dataset.Num(ya+1))}},
		{"MergeTwo", []int64{a.Rank, bRow.Rank}, []IncRow{with(a, dataset.Num(ya+yb))}},
	}
	for _, v := range []struct{ name, src string }{
		{"SumByVenue", `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`},
		{"BinYear", `VISUALIZE bar SELECT Year, SUM(Citations) FROM D1 TRANSFORM BIN Year BY INTERVAL 5`},
	} {
		inc, err := MustParse(v.src).NewIncremental(schema, rows)
		if err != nil {
			b.Fatal(err)
		}
		for _, dl := range deltas {
			b.Run(v.name+"/"+dl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					inc.Eval(dl.removed, dl.added)
				}
			})
		}
	}
}
