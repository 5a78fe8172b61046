package distance

import (
	"math"
	"math/rand"
	"testing"

	"visclean/internal/vis"
)

func chart(ys ...float64) *vis.Data {
	d := &vis.Data{Type: vis.Bar, XField: "X", YField: "Y"}
	for i, y := range ys {
		d.Points = append(d.Points, vis.Point{Label: string(rune('A' + i)), Y: y})
	}
	return d
}

func TestEMDIdentity(t *testing.T) {
	a := chart(1, 2, 3, 4)
	if got := EMD(a, a); got > 1e-12 {
		t.Fatalf("EMD(a,a) = %v, want 0", got)
	}
}

func TestEMDSymmetry(t *testing.T) {
	a, b := chart(1, 2, 3), chart(3, 1, 5, 2)
	if d1, d2 := EMD(a, b), EMD(b, a); math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("EMD not symmetric: %v vs %v", d1, d2)
	}
}

func TestEMDEmptyCharts(t *testing.T) {
	e := chart()
	if got := EMD(e, e); got != 0 {
		t.Fatalf("EMD(empty,empty) = %v", got)
	}
	if got := EMD(e, chart(1, 2)); got != 1 {
		t.Fatalf("EMD(empty,nonempty) = %v, want 1", got)
	}
}

func TestEMDKnownValue(t *testing.T) {
	// a normalizes to (1, 0)... not valid: use (0.75, 0.25) vs (0.5, 0.5).
	a := chart(3, 1) // -> 0.75, 0.25
	b := chart(1, 1) // -> 0.5, 0.5
	// Sorted masses: a = (0.25, 0.75), b = (0.5, 0.5).
	// Monotone coupling: 0.25 mass at cost |0.25-0.5|=0.25, then 0.25 of
	// 0.75 onto remaining 0.25 of first 0.5 at cost |0.75-0.5|=0.25, then
	// 0.5 onto 0.5 at cost 0.25. Work = 0.25*0.25 + 0.25*0.25 + 0.5*0.25
	// = 0.25. Total flow 1, EMD = 0.25.
	if got := EMD(a, b); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("EMD = %v, want 0.25", got)
	}
}

func TestEMDMatchesFlowSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		pa := randomDist(rng, m)
		pb := randomDist(rng, n)
		fast := EMDVectors(pa, pb)
		exact := emdViaFlow(pa, pb)
		if math.Abs(fast-exact) > 1e-9 {
			t.Fatalf("trial %d: fast EMD %v != flow EMD %v (pa=%v pb=%v)", trial, fast, exact, pa, pb)
		}
	}
}

func randomDist(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = rng.Float64()
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func TestEMDTriangleInequality(t *testing.T) {
	// EMD over distributions is a metric; spot-check the triangle
	// inequality on random normalized vectors of equal support size.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		a, b, c := randomDist(rng, n), randomDist(rng, n), randomDist(rng, n)
		dab := EMDVectors(a, b)
		dbc := EMDVectors(b, c)
		dac := EMDVectors(a, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("triangle violated: d(a,c)=%v > %v+%v", dac, dab, dbc)
		}
	}
}

func TestEMDNegativeValuesShifted(t *testing.T) {
	// Negative bars are shifted before normalization; must not panic and
	// must keep identity at zero.
	a := chart(-5, 10, 3)
	if got := EMD(a, a); got > 1e-12 {
		t.Fatalf("EMD(a,a) with negatives = %v", got)
	}
	b := chart(-5, 10, 4)
	if got := EMD(a, b); got < 0 {
		t.Fatalf("negative EMD %v", got)
	}
}

func TestEMDAllZeroSeries(t *testing.T) {
	a := chart(0, 0, 0)
	b := chart(1, 1, 1)
	// Both normalize to uniform; distance 0.
	if got := EMD(a, b); got > 1e-12 {
		t.Fatalf("EMD(uniform,uniform) = %v", got)
	}
}

func TestEMD1D(t *testing.T) {
	mk := func(pos []float64, ys []float64) *vis.Data {
		d := &vis.Data{Type: vis.Bar}
		for i := range pos {
			d.Points = append(d.Points, vis.Point{Label: "b", X: pos[i], HasX: true, Y: ys[i]})
		}
		return d
	}
	// All mass at 0 vs all mass at 1 → W1 = 1.
	a := mk([]float64{0}, []float64{5})
	b := mk([]float64{1}, []float64{7})
	if got := EMD1D(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EMD1D = %v, want 1", got)
	}
	if got := EMD1D(a, a); got != 0 {
		t.Fatalf("EMD1D identity = %v", got)
	}
	if got := EMD1D(&vis.Data{}, a); got != 1 {
		t.Fatalf("EMD1D empty vs nonempty = %v", got)
	}
}

func TestLabelAlignedDistances(t *testing.T) {
	a := &vis.Data{Points: []vis.Point{{Label: "SIGMOD", Y: 3}, {Label: "VLDB", Y: 1}}}
	b := &vis.Data{Points: []vis.Point{{Label: "SIGMOD", Y: 1}, {Label: "VLDB", Y: 3}}}
	if got := L1(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("L1 = %v, want 0.5", got)
	}
	if got := L2(a, b); math.Abs(got-math.Sqrt(0.5)) > 1e-12 {
		t.Fatalf("L2 = %v", got)
	}
	for name, f := range map[string]func(a, b *vis.Data) float64{"L1": L1, "L2": L2, "KL": KL, "JS": JS} {
		if d := f(a, a); d > 1e-6 {
			t.Errorf("%s identity = %v", name, d)
		}
		if d := f(a, b); d <= 0 {
			t.Errorf("%s(a,b) = %v, want > 0", name, d)
		}
	}
	// Symmetric ones.
	for name, f := range map[string]func(a, b *vis.Data) float64{"L1": L1, "L2": L2, "JS": JS} {
		if d1, d2 := f(a, b), f(b, a); math.Abs(d1-d2) > 1e-12 {
			t.Errorf("%s not symmetric: %v vs %v", name, d1, d2)
		}
	}
}

func TestDistancesDisjointLabels(t *testing.T) {
	a := &vis.Data{Points: []vis.Point{{Label: "A", Y: 1}}}
	b := &vis.Data{Points: []vis.Point{{Label: "B", Y: 1}}}
	if got := L1(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("L1 disjoint = %v, want 1", got)
	}
	if got := JS(a, b); got <= 0 {
		t.Fatalf("JS disjoint = %v", got)
	}
}

func TestTransportationDirect(t *testing.T) {
	// 2 supplies, 2 demands, classic assignment structure.
	supply := []float64{0.5, 0.5}
	demand := []float64{0.5, 0.5}
	cost := [][]float64{{0, 1}, {1, 0}}
	flow := transportation(supply, demand, cost)
	if math.Abs(flow[0][0]-0.5) > 1e-9 || math.Abs(flow[1][1]-0.5) > 1e-9 {
		t.Fatalf("flow = %v, want diagonal", flow)
	}
	if flow[0][1] > 1e-9 || flow[1][0] > 1e-9 {
		t.Fatalf("off-diagonal flow: %v", flow)
	}
}

func TestTransportationUnbalanced(t *testing.T) {
	supply := []float64{1.0}
	demand := []float64{0.25, 0.25}
	cost := [][]float64{{2, 3}}
	flow := transportation(supply, demand, cost)
	// Total moved = min(1, 0.5) = 0.5, cheapest first.
	total := flow[0][0] + flow[0][1]
	if math.Abs(total-0.5) > 1e-9 {
		t.Fatalf("total flow = %v, want 0.5", total)
	}
	if math.Abs(flow[0][0]-0.25) > 1e-9 {
		t.Fatalf("flow[0][0] = %v, want 0.25", flow[0][0])
	}
}

func TestTransportationEmpty(t *testing.T) {
	flow := transportation(nil, []float64{1}, nil)
	if len(flow) != 0 {
		t.Fatalf("flow = %v", flow)
	}
}

func BenchmarkEMDFast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pa := randomDist(rng, 20)
	pb := randomDist(rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EMDVectors(pa, pb)
	}
}

func BenchmarkEMDFlowSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pa := randomDist(rng, 20)
	pb := randomDist(rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emdViaFlow(pa, pb)
	}
}
