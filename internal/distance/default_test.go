package distance

import (
	"math"
	"testing"

	"visclean/internal/vis"
)

func categorical(labels []string, ys []float64) *vis.Data {
	d := &vis.Data{Type: vis.Bar}
	for i := range labels {
		d.Points = append(d.Points, vis.Point{Label: labels[i], Y: ys[i]})
	}
	return d
}

func binned(xs, ys []float64) *vis.Data {
	d := &vis.Data{Type: vis.Bar}
	for i := range xs {
		d.Points = append(d.Points, vis.Point{Label: "b", X: xs[i], HasX: true, Y: ys[i]})
	}
	return d
}

func TestDefaultDispatchesCategorical(t *testing.T) {
	a := categorical([]string{"SIGMOD", "VLDB"}, []float64{3, 1})
	b := categorical([]string{"SIGMOD", "VLDB"}, []float64{1, 3})
	if got, want := Default(a, b), L1(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Default = %v, L1 = %v", got, want)
	}
}

func TestDefaultDispatchesPositional(t *testing.T) {
	a := binned([]float64{0, 1}, []float64{3, 1})
	b := binned([]float64{0, 1}, []float64{1, 3})
	if got, want := Default(a, b), EMD1D(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Default = %v, EMD1D = %v", got, want)
	}
}

func TestDefaultMixedFallsBackToL1(t *testing.T) {
	a := binned([]float64{0}, []float64{1})
	b := categorical([]string{"x"}, []float64{1})
	if got, want := Default(a, b), L1(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Default mixed = %v, want L1 %v", got, want)
	}
}

// TestDefaultSeesLabelSwap is the scenario that disqualifies the paper's
// literal EMD as a progress measure: same bar heights, wrong categories.
func TestDefaultSeesLabelSwap(t *testing.T) {
	a := categorical([]string{"SIGMOD", "VLDB"}, []float64{3, 1})
	b := categorical([]string{"VLDB", "SIGMOD"}, []float64{3, 1})
	if got := EMD(a, b); got > 1e-12 {
		t.Fatalf("literal EMD should be blind to the swap, got %v", got)
	}
	if got := Default(a, b); got <= 0 {
		t.Fatalf("Default must see the swap, got %v", got)
	}
}

func TestDefaultIdentity(t *testing.T) {
	a := categorical([]string{"x", "y", "z"}, []float64{5, 2, 1})
	if got := Default(a, a); got > 1e-12 {
		t.Fatalf("Default identity = %v", got)
	}
	p := binned([]float64{0, 200, 400}, []float64{5, 2, 1})
	if got := Default(p, p); got > 1e-12 {
		t.Fatalf("Default positional identity = %v", got)
	}
}

// TestNaNDistanceIsCanonical: a NaN distance (a NaN mark, or +Inf and
// −Inf masses) always carries math.NaN()'s bits, from Default and from
// Baseline alike, whichever NaN operand the compiled arithmetic met
// first. FuzzBaseline's instrumented build once saw the two differ.
func TestNaNDistanceIsCanonical(t *testing.T) {
	inf := math.Inf(1)
	charts := []*vis.Data{
		categorical([]string{"a", "b"}, []float64{inf, math.NaN()}),
		categorical([]string{"a", "b", "c"}, []float64{-inf, 2, inf}),
		binned([]float64{0, 1, 0}, []float64{3.5, math.NaN(), -inf}),
		binned([]float64{0}, []float64{3.5}),
		categorical([]string{"a"}, []float64{1}),
	}
	want := math.Float64bits(math.NaN())
	for i, a := range charts {
		for j, b := range charts {
			for name, got := range map[string]float64{"Default": Default(a, b), "Baseline": NewBaseline(a).Distance(b)} {
				if math.IsNaN(got) && math.Float64bits(got) != want {
					t.Errorf("%s(chart %d, chart %d) = NaN with bits %016x, want %016x", name, i, j, math.Float64bits(got), want)
				}
			}
		}
	}
}
