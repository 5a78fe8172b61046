// Package vis defines the visualization data model shared by the query
// executor (which produces it) and the distance functions (which consume
// it): a chart is a typed series of (x, y) points, exactly the d =
// (d_1..d_m), d_i = (d_i(x), d_i(y)) notation of §II-B.
package vis

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// ChartType enumerates the chart types of the paper's VQL (Fig 2).
type ChartType int

const (
	Bar ChartType = iota
	Pie
)

func (c ChartType) String() string {
	switch c {
	case Bar:
		return "bar"
	case Pie:
		return "pie"
	default:
		return fmt.Sprintf("ChartType(%d)", int(c))
	}
}

// Point is one mark of a chart: a categorical label (group name or bin
// label) and optionally a numeric x position (bin lower bound), plus the
// y value.
type Point struct {
	Label string
	X     float64
	HasX  bool
	Y     float64
}

// Data is the materialized visualization: what Q(D) evaluates to.
type Data struct {
	Type   ChartType
	XField string // source column for the x axis
	YField string // source column for the y axis ("" for COUNT(*) style)
	Points []Point
}

// NormalizedY returns the y values scaled to sum to 1, as required by the
// EMD formulation of §II-B. Negative y values are shifted so the minimum
// maps to zero before normalization (EMD needs non-negative mass). A
// series that sums to zero normalizes to the uniform distribution. A
// mark whose y is not finite (a NaN or ±Inf aggregate) gets zero mass
// and takes no part in the minimum, the shift, the sum or the uniform
// distribution, so it cannot turn the other marks' masses into NaN.
// When finite marks are so large that a shifted mark or the sum
// overflows, they are scaled by a power of two first; that is exact, so
// the masses keep their ratios, and every series whose shifted sum is
// finite normalizes unscaled.
func (d *Data) NormalizedY() []float64 {
	out := make([]float64, len(d.Points))
	sum, finite := d.shiftInto(out, 1)
	if math.IsInf(sum, 1) {
		// Each scaled mark is below MaxFloat64/(4·finite), so neither a
		// shifted mark nor the sum of finite of them can overflow.
		sum, _ = d.shiftInto(out, math.Ldexp(1, -2-bits.Len(uint(finite))))
	}
	if sum <= 0 {
		for i, p := range d.Points {
			if isFinite(p.Y) {
				out[i] = 1 / float64(finite)
			}
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// shiftInto writes every finite mark's y times scale into out, shifted
// so that the smallest is zero when it is negative, and returns their
// sum and how many marks are finite.
func (d *Data) shiftInto(out []float64, scale float64) (sum float64, finite int) {
	min := math.Inf(1)
	for _, p := range d.Points {
		if isFinite(p.Y) {
			finite++
			if y := p.Y * scale; y < min {
				min = y
			}
		}
	}
	shift := 0.0
	if min < 0 {
		shift = -min
	}
	for i, p := range d.Points {
		if isFinite(p.Y) {
			out[i] = p.Y*scale + shift
			sum += out[i]
		}
	}
	return sum, finite
}

func isFinite(y float64) bool { return !math.IsNaN(y) && !math.IsInf(y, 0) }

// String renders the series compactly for logs and tests.
func (d *Data) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s,%s)[", d.Type, d.XField, d.YField)
	for i, p := range d.Points {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%g", p.Label, p.Y)
	}
	b.WriteByte(']')
	return b.String()
}
