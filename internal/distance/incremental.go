package distance

import (
	"math"
	"sort"

	"visclean/internal/vis"
)

// Baseline precomputes the base-side intermediates of Default so that
// repeated distances against one fixed visualization skip the base's
// normalization / label-map / sort work. This is the delta-EMD layer of
// incremental hypothesis pricing: one Baseline per iteration, one
// Distance call per hypothesis.
//
// Bit-identity contract: Distance(after) returns exactly the same float
// bits as Default(base, after). That holds because the paths below
// perform the identical arithmetic in the identical order — the base
// prefix sums replay cdf's left-to-right additions, and the label union
// is enumerated in the same sorted order L1 uses.
type Baseline struct {
	// EMD1D intermediates.
	basePositional bool
	baseXs         []float64 // sorted support (duplicates kept, like EMD1D's xs)
	basePrefix     []float64 // basePrefix[i] = mass of baseXs[:i+1] by running sum
	baseEmpty      bool

	// L1 intermediates.
	baseMass   map[string]float64
	baseLabels []string // sorted
}

// NewBaseline captures the base side of Default. base must not be
// mutated afterwards. A Baseline is immutable and safe for concurrent
// Distance calls.
func NewBaseline(base *vis.Data) *Baseline {
	b := &Baseline{basePositional: allPositional(base), baseEmpty: len(base.Points) == 0}

	// EMD1D base side: the sorted (x, mass) support with running prefix
	// sums. sortWeighted is the exact extraction EMD1D performs, so the
	// prefix sums replay its cdf additions bit for bit.
	ws := sortWeighted(base)
	b.baseXs = make([]float64, len(ws))
	b.basePrefix = make([]float64, len(ws))
	run := 0.0
	for i, w := range ws {
		b.baseXs[i] = w.x
		run += w.p
		b.basePrefix[i] = run
	}

	// L1 base side: the normalized label-mass map and its sorted labels.
	b.baseMass = normalizedLabelMap(base)
	b.baseLabels = make([]string, 0, len(b.baseMass))
	for l := range b.baseMass {
		b.baseLabels = append(b.baseLabels, l)
	}
	sort.Strings(b.baseLabels)
	return b
}

type weighted struct{ x, p float64 }

// sortWeighted mirrors EMD1D's extract: normalized masses at their x
// positions (index fallback), sorted by x with Go's deterministic
// (unstable but input-determined) sort.
func sortWeighted(d *vis.Data) []weighted {
	norm := d.NormalizedY()
	out := make([]weighted, len(d.Points))
	for i, pt := range d.Points {
		x := float64(i)
		if pt.HasX {
			x = pt.X
		}
		out[i] = weighted{x: x, p: norm[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].x < out[j].x })
	return out
}

// Distance returns Default(base, after) from the precomputed base
// intermediates.
func (b *Baseline) Distance(after *vis.Data) float64 {
	if b.basePositional && allPositional(after) {
		return canonicalNaN(b.emd1d(after))
	}
	return canonicalNaN(b.l1(after))
}

// emd1d integrates |CDF_base − CDF_after| over the merged support,
// reading the base CDF from the prefix-sum table. The after side's
// prefix sums are built the same way, so every addition matches the
// from-scratch EMD1D evaluation.
func (b *Baseline) emd1d(after *vis.Data) float64 {
	wb := sortWeighted(after)
	switch {
	case b.baseEmpty && len(wb) == 0:
		return 0
	case b.baseEmpty || len(wb) == 0:
		return 1
	}
	bXs := make([]float64, len(wb))
	bPrefix := make([]float64, len(wb))
	run := 0.0
	for i, w := range wb {
		bXs[i] = w.x
		run += w.p
		bPrefix[i] = run
	}

	xs := make([]float64, 0, len(b.baseXs)+len(bXs))
	xs = append(xs, b.baseXs...)
	xs = append(xs, bXs...)
	sort.Float64s(xs)

	cdf := func(sortedXs, prefix []float64, x float64) float64 {
		// Number of support points with w.x <= x; the slice is sorted, so
		// they form a prefix and the running sum equals cdf's loop.
		n := sort.SearchFloat64s(sortedXs, x)
		for n < len(sortedXs) && sortedXs[n] <= x {
			n++
		}
		if n == 0 {
			return 0
		}
		return prefix[n-1]
	}
	total := 0.0
	for i := 0; i+1 < len(xs); i++ {
		width := xs[i+1] - xs[i]
		if width <= 0 {
			continue
		}
		total += math.Abs(cdf(b.baseXs, b.basePrefix, xs[i])-cdf(bXs, bPrefix, xs[i])) * width
	}
	return total
}

// l1 is L1 with the base side precomputed: the union of labels is the
// merge of the two sorted label lists, identical to unionLabels' sorted
// output, and the sum runs in that order.
func (b *Baseline) l1(after *vis.Data) float64 {
	mb := normalizedLabelMap(after)
	labelsB := make([]string, 0, len(mb))
	for l := range mb {
		labelsB = append(labelsB, l)
	}
	sort.Strings(labelsB)

	sum := 0.0
	i, j := 0, 0
	for i < len(b.baseLabels) || j < len(labelsB) {
		var l string
		switch {
		case j >= len(labelsB) || (i < len(b.baseLabels) && b.baseLabels[i] < labelsB[j]):
			l = b.baseLabels[i]
			i++
		case i >= len(b.baseLabels) || labelsB[j] < b.baseLabels[i]:
			l = labelsB[j]
			j++
		default: // equal
			l = b.baseLabels[i]
			i++
			j++
		}
		sum += math.Abs(b.baseMass[l] - mb[l])
	}
	return sum / 2
}
