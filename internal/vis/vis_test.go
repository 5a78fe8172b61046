package vis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Data {
	return &Data{
		Type:   Bar,
		XField: "Venue",
		YField: "Citations",
		Points: []Point{
			{Label: "SIGMOD", Y: 3},
			{Label: "VLDB", Y: 1},
		},
	}
}

func TestChartTypeString(t *testing.T) {
	if Bar.String() != "bar" || Pie.String() != "pie" {
		t.Fatal("chart type names wrong")
	}
	if !strings.Contains(ChartType(9).String(), "9") {
		t.Fatal("unknown chart type should include the value")
	}
}

func TestNormalizedY(t *testing.T) {
	n := sample().NormalizedY()
	if math.Abs(n[0]-0.75) > 1e-12 || math.Abs(n[1]-0.25) > 1e-12 {
		t.Fatalf("normalized = %v", n)
	}
}

func TestNormalizedYNegativeShift(t *testing.T) {
	for _, tc := range []struct {
		ys, want []float64
		tol      float64
	}{
		// Shifted to (0, 4) then normalized, exactly.
		{[]float64{-1, 3}, []float64{0, 1}, 0},
		// The shifted 1e308 + 1e308 and the sum overflow unless scaled;
		// 2/3 and 1/3 have no exact float64 form.
		{[]float64{-1e308, 1e308, 1}, []float64{0, 2.0 / 3, 1.0 / 3}, 1e-12},
		{[]float64{1e308, 1e308, 1}, []float64{0.5, 0.5, 0}, 1e-12},
	} {
		d := &Data{}
		for _, y := range tc.ys {
			d.Points = append(d.Points, Point{Y: y})
		}
		n := d.NormalizedY()
		if len(n) != len(tc.want) {
			t.Fatalf("NormalizedY(%v) = %v, want %v", tc.ys, n, tc.want)
		}
		for i := range n {
			// Negated so that a NaN mass fails too.
			if !(math.Abs(n[i]-tc.want[i]) <= tc.tol) {
				t.Fatalf("NormalizedY(%v) = %v, want %v (±%g)", tc.ys, n, tc.want, tc.tol)
			}
		}
	}
}

func TestNormalizedYZeroSum(t *testing.T) {
	d := &Data{Points: []Point{{Y: 0}, {Y: 0}, {Y: 0}}}
	n := d.NormalizedY()
	for _, v := range n {
		if math.Abs(v-1.0/3.0) > 1e-12 {
			t.Fatalf("zero-sum should normalize uniform, got %v", n)
		}
	}
	if len((&Data{}).NormalizedY()) != 0 {
		t.Fatal("empty series should normalize empty")
	}
}

func TestString(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "bar(Venue,Citations)") || !strings.Contains(s, "SIGMOD=3") {
		t.Fatalf("String = %q", s)
	}
}

// Property: NormalizedY always sums to ~1 for non-empty series and every
// entry is in [0, 1].
func TestQuickNormalizedYIsDistribution(t *testing.T) {
	f := func(ys []float64) bool {
		if len(ys) == 0 {
			return true
		}
		d := &Data{}
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = 0
			}
			d.Points = append(d.Points, Point{Y: y})
		}
		n := d.NormalizedY()
		sum := 0.0
		for _, v := range n {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
