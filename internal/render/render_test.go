package render

import (
	"strings"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/erg"
	"visclean/internal/vis"
)

func barData() *vis.Data {
	return &vis.Data{
		Type: vis.Bar,
		Points: []vis.Point{
			{Label: "SIGMOD", Y: 174},
			{Label: "VLDB", Y: 55},
			{Label: "ICDE", Y: 0},
		},
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart(barData(), 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "SIGMOD") || !strings.Contains(lines[0], "174") {
		t.Fatalf("first line = %q", lines[0])
	}
	// Longest bar is width glyphs; zero bar has none.
	if got := strings.Count(lines[0], "█"); got != 20 {
		t.Fatalf("max bar width = %d", got)
	}
	if strings.Count(lines[2], "█") != 0 {
		t.Fatalf("zero bar should be empty: %q", lines[2])
	}
	// Small positive values round up to one glyph.
	small := &vis.Data{Points: []vis.Point{{Label: "a", Y: 1000}, {Label: "b", Y: 1}}}
	outSmall := BarChart(small, 30)
	if !strings.Contains(outSmall, "█ 1\n") {
		t.Fatalf("tiny bar missing:\n%s", outSmall)
	}
}

func TestBarChartEmptyAndDefaults(t *testing.T) {
	if got := BarChart(&vis.Data{}, 10); !strings.Contains(got, "empty") {
		t.Fatalf("empty chart = %q", got)
	}
	// width <= 0 takes the default without panicking.
	if got := BarChart(barData(), 0); !strings.Contains(got, "SIGMOD") {
		t.Fatal("default width render failed")
	}
}

func TestPieChart(t *testing.T) {
	d := &vis.Data{Type: vis.Pie, Points: []vis.Point{
		{Label: "2013", Y: 6},
		{Label: "2014", Y: 2},
		{Label: "2015", Y: 2},
	}}
	out := PieChart(d)
	if !strings.Contains(out, "60.00%") {
		t.Fatalf("pie proportions wrong:\n%s", out)
	}
	if !strings.Contains(out, "2014") || !strings.Contains(out, "20.00%") {
		t.Fatalf("pie output:\n%s", out)
	}
	if got := PieChart(&vis.Data{}); !strings.Contains(got, "empty") {
		t.Fatalf("empty pie = %q", got)
	}
}

func TestChartDispatch(t *testing.T) {
	bar := barData()
	if Chart(bar, 10) != BarChart(bar, 10) {
		t.Fatal("bar dispatch wrong")
	}
	pie := &vis.Data{Type: vis.Pie, Points: bar.Points}
	if Chart(pie, 10) != PieChart(pie) {
		t.Fatal("pie dispatch wrong")
	}
}

func TestCQGRendering(t *testing.T) {
	g := erg.MustNew([]dataset.TupleID{1, 2, 7})
	if err := g.AddEdge(erg.Edge{A: 1, B: 2, HasT: true, PT: 0.7, HasA: true, PA: 0.6,
		ACol: "Venue", AV1: "ACM SIGMOD", AV2: "SIGMOD Conf."}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(erg.Edge{A: 2, B: 7}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRepair(erg.VertexRepair{ID: 2, Kind: erg.Outlier, Current: 1740, Suggested: 174}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRepair(erg.VertexRepair{ID: 7, Kind: erg.Missing, Suggested: 55}); err != nil {
		t.Fatal(err)
	}
	out := CQG(g)
	for _, want := range []string{
		"3 tuples, 2 links",
		"same entity? p=0.70",
		`Venue: "ACM SIGMOD" ≟ "SIGMOD Conf."`,
		"[O? 1740 → 174]",
		"[M? suggest 55]",
		"context",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CQG render missing %q:\n%s", want, out)
		}
	}
}

func TestVegaLiteBar(t *testing.T) {
	out, err := VegaLite(barData(), "Citations per venue")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"mark"`, `"bar"`, `"SIGMOD"`, `"Citations per venue"`, "vega-lite/v5.json"} {
		if !strings.Contains(out, want) {
			t.Fatalf("vega-lite spec missing %q:\n%s", want, out)
		}
	}
}

func TestVegaLitePie(t *testing.T) {
	d := &vis.Data{Type: vis.Pie, XField: "Year", YField: "Count",
		Points: []vis.Point{{Label: "2013", Y: 6}}}
	out, err := VegaLite(d, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"arc"`) || !strings.Contains(out, `"theta"`) {
		t.Fatalf("pie spec wrong:\n%s", out)
	}
	if !strings.Contains(out, `"Year"`) {
		t.Fatalf("pie spec missing field title:\n%s", out)
	}
}
