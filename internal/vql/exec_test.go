package vql

import (
	"math"
	"reflect"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// tableI reproduces the paper's Table I (dirty publications excerpt).
func tableI(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Year", Kind: dataset.Float},
		{Name: "Title", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Affiliation", Kind: dataset.String},
		{Name: "Citations", Kind: dataset.Float},
	})
	rows := [][]dataset.Value{
		{dataset.Num(2013), dataset.Str("NADEEF"), dataset.Str("ACM SIGMOD"), dataset.Str("QCRI"), dataset.Num(174)},
		{dataset.Num(2013), dataset.Str("NADEEF"), dataset.Str("SIGMOD Conf."), dataset.Str("QCRI, HBKU"), dataset.Num(1740)},
		{dataset.Num(2013), dataset.Str("NADEEF"), dataset.Str("SIGMOD"), dataset.Str("QCRI HBKU"), dataset.Num(174)},
		{dataset.Num(2013), dataset.Str("KuaFu"), dataset.Str("ICDE 2013"), dataset.Str("Microsoft"), dataset.Num(15)},
		{dataset.Num(2013), dataset.Str("TsingNUS"), dataset.Str("SIGMOD'13"), dataset.Str("Tsinghua"), dataset.Num(13)},
		{dataset.Num(2013), dataset.Str("TsingNUS"), dataset.Str("SIGMOD'13"), dataset.Str("THU"), dataset.Num(13)},
		{dataset.Num(2014), dataset.Str("SeeDB"), dataset.Str("VLDB"), dataset.Str("Stanford Univ."), dataset.Null(dataset.Float)},
		{dataset.Num(2014), dataset.Str("SeeDB"), dataset.Str("Very Large Data Bases"), dataset.Str("Stanford"), dataset.Num(55)},
		{dataset.Num(2015), dataset.Str("Elaps"), dataset.Str("ICDE"), dataset.Str("NUS"), dataset.Num(42)},
		{dataset.Num(2015), dataset.Str("Elaps"), dataset.Str("IEEE ICDE Conf. 2015"), dataset.Str("CS@NUS"), dataset.Num(44)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func pointMap(d *vis.Data) map[string]float64 {
	m := map[string]float64{}
	for _, p := range d.Points {
		m[p.Label] = p.Y
	}
	return m
}

func TestExecuteQ1BarChart(t *testing.T) {
	// Fig 1(a): SUM(Citations) grouped by Venue over dirty Table I.
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM pubs TRANSFORM GROUP BY Venue SORT Y BY DESC`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := pointMap(d)
	want := map[string]float64{
		"ACM SIGMOD":            174,
		"SIGMOD Conf.":          1740,
		"SIGMOD":                174,
		"ICDE 2013":             15,
		"SIGMOD'13":             26,
		"Very Large Data Bases": 55,
		"ICDE":                  42,
		"IEEE ICDE Conf. 2015":  44,
	}
	// VLDB group: its only tuple has null Citations -> group dropped by
	// SUM's no-usable-cells rule.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
	if d.Points[0].Label != "SIGMOD Conf." {
		t.Fatalf("desc sort first = %q", d.Points[0].Label)
	}
}

func TestExecuteQ2PieChart(t *testing.T) {
	// Fig 1(b): COUNT of publications by Year; proportions equal on dirty
	// and clean data (Example 2): dirty 6/2/2, clean 3/1/1.
	tbl := tableI(t)
	q := MustParse(`VISUALIZE pie SELECT Year, COUNT(Year) FROM pubs TRANSFORM GROUP BY Year SORT X BY ASC`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := pointMap(d)
	want := map[string]float64{"2013": 6, "2014": 2, "2015": 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	norm := d.NormalizedY()
	if math.Abs(norm[0]-0.6) > 1e-12 {
		t.Fatalf("2013 proportion = %v, want 0.6", norm[0])
	}
}

func TestExecuteWherePredicates(t *testing.T) {
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Venue, COUNT(Venue) FROM pubs TRANSFORM GROUP BY Venue WHERE Venue = 'SIGMOD'`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Only the literal "SIGMOD" matches; synonyms are dropped — the
	// attribute-duplicate selection pathology of §II-C (ii).
	if len(d.Points) != 1 || d.Points[0].Y != 1 {
		t.Fatalf("points = %v", d.Points)
	}

	q2 := MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM pubs TRANSFORM GROUP BY Venue WHERE Citations >= 100 AND Year <= 2013`)
	d2, err := q2.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := pointMap(d2)
	want := map[string]float64{"ACM SIGMOD": 174, "SIGMOD Conf.": 1740, "SIGMOD": 174}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestExecuteBin(t *testing.T) {
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Citations, COUNT(Citations) FROM pubs TRANSFORM BIN Citations BY INTERVAL 200`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := pointMap(d)
	// Non-null citations: 174,1740,174,15,13,13,55,42,44 → bin [0,200)=8, [1600,1800)=1.
	want := map[string]float64{"[0,200)": 8, "[1600,1800)": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !d.Points[0].HasX || d.Points[0].X != 0 {
		t.Fatalf("bin point x = %+v", d.Points[0])
	}
}

func TestExecuteBinNegativeValues(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "V", Kind: dataset.Float},
		{Name: "W", Kind: dataset.Float},
	})
	for _, v := range []float64{-25, -5, 5, 15} {
		tbl.MustAppend([]dataset.Value{dataset.Num(v), dataset.Num(1)})
	}
	q := MustParse(`VISUALIZE bar SELECT V, COUNT(W) FROM d TRANSFORM BIN V BY INTERVAL 10`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := pointMap(d)
	want := map[string]float64{"[-30,-20)": 1, "[-10,0)": 1, "[0,10)": 1, "[10,20)": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestExecuteAvg(t *testing.T) {
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Title, AVG(Citations) FROM pubs TRANSFORM GROUP BY Title`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := pointMap(d)
	// SeeDB: one null + 55 → AVG over non-null = 55 (shrunken denominator).
	if got["SeeDB"] != 55 {
		t.Fatalf("AVG SeeDB = %v, want 55", got["SeeDB"])
	}
	if math.Abs(got["NADEEF"]-(174+1740+174)/3.0) > 1e-9 {
		t.Fatalf("AVG NADEEF = %v", got["NADEEF"])
	}
}

func TestExecuteRawYPerTuple(t *testing.T) {
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Title, Citations FROM pubs SORT Y BY DESC LIMIT 3`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Points) != 3 {
		t.Fatalf("limit not applied: %d points", len(d.Points))
	}
	if d.Points[0].Y != 1740 {
		t.Fatalf("top raw point = %v", d.Points[0])
	}
}

func TestExecuteSortXNumeric(t *testing.T) {
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Year, COUNT(Year) FROM pubs TRANSFORM BIN Year BY INTERVAL 1 SORT X BY DESC`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d.Points[0].X != 2015 || d.Points[len(d.Points)-1].X != 2013 {
		t.Fatalf("desc x order wrong: %v", d.Points)
	}
}

func TestValidateErrors(t *testing.T) {
	schema := tableI(t).Schema()
	bad := []string{
		`VISUALIZE bar SELECT Nope, SUM(Citations) FROM p TRANSFORM GROUP BY Nope`,
		`VISUALIZE bar SELECT Venue, SUM(Nope) FROM p TRANSFORM GROUP BY Venue`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM p TRANSFORM BIN Venue BY INTERVAL 5`,
		`VISUALIZE bar SELECT Venue, SUM(Title) FROM p TRANSFORM GROUP BY Venue`,
		`VISUALIZE bar SELECT Venue, Title FROM p`,
		`VISUALIZE bar SELECT Venue, Citations FROM p TRANSFORM GROUP BY Venue`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM p TRANSFORM GROUP BY Venue WHERE Nope = 1`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM p TRANSFORM GROUP BY Venue WHERE Venue = 5`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM p TRANSFORM GROUP BY Venue WHERE Citations = 'x'`,
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q) failed syntactically: %v", src, err)
		}
		if err := q.Validate(schema); err == nil {
			t.Errorf("Validate(%q) succeeded, want error", src)
		}
	}
}

func TestExecuteEmptyResult(t *testing.T) {
	tbl := tableI(t)
	q := MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM p TRANSFORM GROUP BY Venue WHERE Year > 2020`)
	d, err := q.Execute(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Points) != 0 {
		t.Fatalf("points = %v", d.Points)
	}
}

func TestExecuteDoesNotMutateTable(t *testing.T) {
	tbl := tableI(t)
	before := tbl.String()
	q := MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM p TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 3`)
	if _, err := q.Execute(tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.String() != before {
		t.Fatal("Execute mutated the table")
	}
}
