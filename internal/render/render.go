// Package render draws visualizations and composite-question graphs as
// text — the terminal edition of the paper's GUI (§VI). Bar charts render
// as horizontal bars, pie charts as a proportion table, and CQGs as an
// adjacency listing with question annotations the user can answer.
package render

import (
	"fmt"
	"sort"
	"strings"

	"visclean/internal/erg"
	"visclean/internal/vis"
)

// BarChart renders a horizontal ASCII bar chart of the series, width
// characters wide at the longest bar.
func BarChart(d *vis.Data, width int) string {
	if width <= 0 {
		width = 40
	}
	if len(d.Points) == 0 {
		return "(empty visualization)\n"
	}
	maxLabel := 0
	maxY := 0.0
	for _, p := range d.Points {
		if len(p.Label) > maxLabel {
			maxLabel = len(p.Label)
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	var b strings.Builder
	for _, p := range d.Points {
		bar := 0
		if maxY > 0 && p.Y > 0 {
			bar = int(p.Y / maxY * float64(width))
			if bar == 0 {
				bar = 1
			}
		}
		fmt.Fprintf(&b, "%-*s |%s %g\n", maxLabel, p.Label, strings.Repeat("█", bar), p.Y)
	}
	return b.String()
}

// PieChart renders the proportions of the series as a table with a
// percentage column and a small glyph bar.
func PieChart(d *vis.Data) string {
	if len(d.Points) == 0 {
		return "(empty visualization)\n"
	}
	norm := d.NormalizedY()
	maxLabel := 0
	for _, p := range d.Points {
		if len(p.Label) > maxLabel {
			maxLabel = len(p.Label)
		}
	}
	var b strings.Builder
	for i, p := range d.Points {
		pct := norm[i] * 100
		glyphs := int(pct / 4)
		fmt.Fprintf(&b, "%-*s %6.2f%% %s (%g)\n", maxLabel, p.Label, pct, strings.Repeat("◔", glyphs), p.Y)
	}
	return b.String()
}

// Chart dispatches on the chart type.
func Chart(d *vis.Data, width int) string {
	if d.Type == vis.Pie {
		return PieChart(d)
	}
	return BarChart(d, width)
}

// CQG renders a composite question graph: its vertices with repair
// questions and its edges with T/A questions, numbered so a terminal
// user can answer them one by one.
func CQG(g *erg.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Composite question: %d tuples, %d links\n", g.NumVertices(), g.NumEdges())

	var vertices []string
	for _, v := range g.Vertices() {
		label := fmt.Sprintf("t%d", v)
		if r := g.Repair(v); r != nil {
			if r.Kind == erg.Missing {
				label += fmt.Sprintf(" [M? suggest %.4g]", r.Suggested)
			} else {
				label += fmt.Sprintf(" [O? %.4g → %.4g]", r.Current, r.Suggested)
			}
		}
		vertices = append(vertices, label)
	}
	sort.Strings(vertices)
	fmt.Fprintf(&b, "  vertices: %s\n", strings.Join(vertices, ", "))

	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		var qs []string
		if e.HasT {
			qs = append(qs, fmt.Sprintf("same entity? p=%.2f", e.PT))
		}
		if e.HasA {
			qs = append(qs, fmt.Sprintf("%s: %q ≟ %q (p=%.2f)", e.ACol, e.AV1, e.AV2, e.PA))
		}
		if len(qs) == 0 {
			qs = append(qs, "context")
		}
		fmt.Fprintf(&b, "  edge %d: t%d — t%d   %s\n", i+1, e.A, e.B, strings.Join(qs, "; "))
	}
	return b.String()
}
