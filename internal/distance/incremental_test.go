package distance

import (
	"fmt"
	"testing"

	"visclean/internal/vis"
)

func blCat(ys ...float64) *vis.Data {
	d := &vis.Data{Type: vis.Bar}
	for i, y := range ys {
		d.Points = append(d.Points, vis.Point{Label: fmt.Sprintf("l%d", i), Y: y})
	}
	return d
}

func blPos(pts ...[2]float64) *vis.Data {
	d := &vis.Data{Type: vis.Bar}
	for _, p := range pts {
		d.Points = append(d.Points, vis.Point{Label: fmt.Sprintf("[%g)", p[0]), X: p[0], HasX: true, Y: p[1]})
	}
	return d
}

// TestBaselineMatchesDefault sweeps chart pairs across the dispatch
// space — categorical (L1 path), positional (EMD1D path), mixed, empty,
// duplicate-x, negative masses — and requires the baseline's fast paths
// to reproduce Default bit for bit.
func TestBaselineMatchesDefault(t *testing.T) {
	charts := []*vis.Data{
		{},
		blCat(1),
		blCat(174, 1740, 15, 13),
		blCat(3, 3, 3),
		blCat(-1, 4, 2),
		blPos([2]float64{2013, 174}, [2]float64{2014, 55}, [2]float64{2015, 42}),
		blPos([2]float64{2013, 100}, [2]float64{2013.5, 7}),
		blPos([2]float64{2013, 1}, [2]float64{2013, 2}, [2]float64{2014, 3}),
		{Points: []vis.Point{{Label: "a", Y: 5}, {Label: "b", X: 1, HasX: true, Y: 3}}},
	}
	for i, base := range charts {
		bl := NewBaseline(base)
		for j, after := range charts {
			got := bl.Distance(after)
			want := Default(base, after)
			if got != want {
				t.Errorf("base %d vs after %d: baseline %v != default %v", i, j, got, want)
			}
		}
	}
}

// TestBaselineAgainstNamedFuncs cross-checks the fast paths against the
// exported L1/EMD1D they shortcut.
func TestBaselineAgainstNamedFuncs(t *testing.T) {
	a := blCat(174, 1740, 15)
	b := blCat(174, 40, 15)
	if got, want := NewBaseline(a).Distance(b), L1(a, b); got != want {
		t.Fatalf("L1 path: %v != %v", got, want)
	}
	pa := blPos([2]float64{0, 1}, [2]float64{1, 2})
	pb := blPos([2]float64{0.5, 4}, [2]float64{1, 1})
	if got, want := NewBaseline(pa).Distance(pb), EMD1D(pa, pb); got != want {
		t.Fatalf("EMD1D path: %v != %v", got, want)
	}
}
