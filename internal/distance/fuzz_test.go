package distance

import (
	"math"
	"testing"

	"visclean/internal/vis"
)

// fuzzLabels repeat on purpose and include the empty label, so two
// points of one chart can share a label.
var fuzzLabels = []string{"", "a", "b", "SIGMOD", "VLDB", "a", "[0,5)", "é"}

// fuzzXs are the positions a point can take: ±0, duplicates, negatives,
// ±Inf and extremes. A chart's X is never NaN (a bin's lower bound or a
// non-null numeric cell), so none is drawn.
var fuzzXs = []float64{0, math.Copysign(0, -1), 1, 1, 2.5, -3, 2013, 1e300, -1e300, math.Inf(1), math.Inf(-1), 5e-324}

// fuzzChart decodes a chart from spec, three bytes a point: a flag byte
// whose low bit gives the point an X (so a chart can be positional,
// categorical or mixed), a label index and a Y index. Y indexes a table
// of ±0, NaN, ±Inf, extremes and the two fuzzed values u and v. A spec
// shorter than three bytes is the empty chart.
func fuzzChart(spec []byte, u, v float64) *vis.Data {
	ys := []float64{0, math.Copysign(0, -1), 1, 3.5, -1, -7, 1e308, -1e308, math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 5e-324, u, v}
	d := &vis.Data{Type: vis.Bar}
	for i := 0; i+2 < len(spec) && len(d.Points) < 32; i += 3 {
		p := vis.Point{Label: fuzzLabels[int(spec[i+1])%len(fuzzLabels)], Y: ys[int(spec[i+2])%len(ys)]}
		if spec[i]&1 != 0 {
			p.X, p.HasX = fuzzXs[int(spec[i]>>1)%len(fuzzXs)], true
		}
		d.Points = append(d.Points, p)
	}
	return d
}

// FuzzBaseline holds Baseline.Distance to Default by Float64bits, in
// both directions of every fuzzed chart pair, NaN results included:
// the delta pricer prices through the baseline, so any difference would
// be a price the full rebuild does not make.
func FuzzBaseline(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, u, v float64) {
		ca, cb := fuzzChart(a, u, v), fuzzChart(b, u, v)
		for _, pair := range [][2]*vis.Data{{ca, cb}, {cb, ca}, {ca, ca}} {
			base, after := pair[0], pair[1]
			got := NewBaseline(base).Distance(after)
			want := Default(base, after)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Baseline(%+v).Distance(%+v) = %v (bits %016x), Default = %v (bits %016x)",
					base.Points, after.Points, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
