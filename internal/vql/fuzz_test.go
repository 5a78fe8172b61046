package vql

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// fuzzQuery decodes a query shape over incSchema from a bit field:
//
//	bit 0      BIN Year (else GROUP)
//	bit 1      GROUP BY Year, numeric keys (else GROUP BY Venue)
//	bits 2-3   SUM, AVG, COUNT, SUM
//	bits 4-5   SORT none, X, Y, Y
//	bit 6      DESC
//	bits 7-8   LIMIT 0 (none) to 3
//	bits 9-10  no WHERE, Year >= 0, Venue >= 'b', Citations > 0
//	bits 11-12 BIN interval 1, 2, 0.5, 3
func fuzzQuery(shape uint16) *Query {
	q := &Query{Chart: vis.Bar, Y: "Citations", From: "D", Transform: TransformGroup, X: "Venue"}
	if shape&1 != 0 {
		q.Transform, q.X = TransformBin, "Year"
		q.BinInterval = []float64{1, 2, 0.5, 3}[shape>>11&3]
	} else if shape&2 != 0 {
		q.X = "Year"
	}
	q.Agg = []Agg{AggSum, AggAvg, AggCount, AggSum}[shape>>2&3]
	q.Sort = []Axis{AxisNone, AxisX, AxisY, AxisY}[shape>>4&3]
	q.SortDesc = shape&(1<<6) != 0
	q.Limit = int(shape >> 7 & 3)
	switch shape >> 9 & 3 {
	case 1:
		q.Where = []Predicate{{Column: "Year", Op: OpGe, NumValue: 0, IsNum: true}}
	case 2:
		q.Where = []Predicate{{Column: "Venue", Op: OpGe, StrValue: "b"}}
	case 3:
		q.Where = []Predicate{{Column: "Citations", Op: OpGt, NumValue: 0, IsNum: true}}
	}
	return q
}

// fuzzCell parses one numeric cell: "~" or an unparsable string is null,
// and strconv's spellings give ±0 and ±Inf ("NaN" becomes null through
// dataset.Num).
func fuzzCell(s string) dataset.Value {
	f, err := strconv.ParseFloat(s, 64)
	if s == "~" || err != nil {
		return dataset.Null(dataset.Float)
	}
	return dataset.Num(f)
}

// fuzzRow parses "venue|year|citations"; a venue of "~" is null.
func fuzzRow(rank int64, line string) IncRow {
	f := strings.SplitN(line, "|", 3)
	for len(f) < 3 {
		f = append(f, "~")
	}
	venue := dataset.Str(f[0])
	if f[0] == "~" {
		venue = dataset.Null(dataset.String)
	}
	return IncRow{Rank: rank, Vals: []dataset.Value{venue, fuzzCell(f[1]), fuzzCell(f[2])}}
}

// fuzzBase parses one base row per line; row i gets rank 3i+3, so new
// ranks fit before, between and after the base rows.
func fuzzBase(spec string) []IncRow {
	var rows []IncRow
	for i, line := range strings.Split(spec, "\n") {
		if i == 64 {
			break
		}
		rows = append(rows, fuzzRow(int64(3*i+3), line))
	}
	return rows
}

// fuzzDelta parses one delta step per line: "-R" removes rank R (an
// unknown rank is a no-op), "+R|venue|year|citations" adds a row at
// rank R. An added rank that a base row holds removes that row, so the
// addition reuses its rank; a rank added twice keeps the first. added
// comes back in ascending rank order, as Eval requires.
func fuzzDelta(base []IncRow, spec string) (removed []int64, added []IncRow) {
	inBase := map[int64]bool{}
	for _, r := range base {
		inBase[r.Rank] = true
	}
	gone := map[int64]bool{}
	taken := map[int64]bool{}
	for _, line := range strings.Split(spec, "\n") {
		if len(line) < 2 || (line[0] != '-' && line[0] != '+') {
			continue
		}
		head, rest, _ := strings.Cut(line[1:], "|")
		rank, err := strconv.ParseInt(head, 10, 32)
		if err != nil {
			continue
		}
		if line[0] == '+' {
			if taken[rank] {
				continue
			}
			taken[rank] = true
			added = append(added, fuzzRow(rank, rest))
		}
		if (line[0] == '-' || inBase[rank]) && !gone[rank] {
			gone[rank] = true
			removed = append(removed, rank)
		}
	}
	for i := 1; i < len(added); i++ {
		for j := i; j > 0 && added[j].Rank < added[j-1].Rank; j-- {
			added[j], added[j-1] = added[j-1], added[j]
		}
	}
	return removed, added
}

// FuzzIncrementalEval holds Eval to Execute over the materialized rows,
// point by point and bit by bit, on every input: fuzzed base rows
// (empty, null, duplicated and non-ASCII keys; negative X; null, ±0 and
// ±Inf measures, so +Inf and -Inf in one group make a NaN mark), query
// shapes (fuzzQuery) and deltas (fuzzDelta).
func FuzzIncrementalEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint16, baseSpec, deltaSpec string) {
		q := fuzzQuery(shape)
		base := fuzzBase(baseSpec)
		inc, err := q.NewIncremental(incSchema, base)
		if err != nil {
			t.Fatal(err)
		}
		removed, added := fuzzDelta(base, deltaSpec)
		tbl := applyDelta(t, base, removed, added)
		got := inc.Eval(removed, added)
		want, err := q.Execute(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("removed=%v added=%v: %d points, Execute has %d\ngot  %+v\nwant %+v",
				removed, added, len(got.Points), len(want.Points), got.Points, want.Points)
		}
		for i, g := range got.Points {
			w := want.Points[i]
			if g.Label != w.Label || g.HasX != w.HasX ||
				math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
				t.Fatalf("removed=%v added=%v: point %d is %+v, Execute has %+v", removed, added, i, g, w)
			}
		}
	})
}

// TestIncrementalEvalAllocsFlat pins that a one-row delta allocates the
// same number of objects whatever the number of base groups: the merge
// walks at most LIMIT base marks and builds nothing per group.
func TestIncrementalEvalAllocsFlat(t *testing.T) {
	for _, src := range []string{
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`,
		`VISUALIZE bar SELECT Year, SUM(Citations) FROM D TRANSFORM BIN Year BY INTERVAL 1 SORT Y BY DESC LIMIT 10`,
	} {
		q := MustParse(src)
		allocs := func(groups int) float64 {
			var rows []IncRow
			for i := 0; i < 3*groups; i++ {
				g := i % groups
				rows = append(rows, incRow(int64(i), "v"+strconv.Itoa(g), dataset.Num(float64(g)), dataset.Num(float64(i%7))))
			}
			inc, err := q.NewIncremental(incSchema, rows)
			if err != nil {
				t.Fatal(err)
			}
			mid := rows[len(rows)/2]
			removed := []int64{mid.Rank}
			added := []IncRow{incRow(mid.Rank, mid.Vals[0].String(), mid.Vals[1], dataset.Num(1e6))}
			return testing.AllocsPerRun(100, func() {
				inc.Eval(removed, added)
			})
		}
		if small, large := allocs(10), allocs(1000); small != large {
			t.Errorf("%s: a one-row delta allocates %.0f objects at 10 groups and %.0f at 1,000", src, small, large)
		}
	}
}

// FuzzParse feeds Parse arbitrary text, as AddView receives it over
// HTTP. Parse must never panic, and every query it accepts must print
// (Query.String) to text that parses back to the same AST, which is
// what replaying a logged AddView relies on.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded, but its String %q does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("Parse(%q) = %+v, but its String %q parses to %+v", src, q, text, back)
		}
	})
}
