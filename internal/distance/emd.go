package distance

import (
	"math"
	"sort"

	"visclean/internal/vis"
)

// Default is the distance the pipeline uses to compare visualizations:
// for charts whose marks carry numeric positions (binned axes) it is the
// positional Earth Mover's Distance (EMD1D); for categorical charts it
// is the label-aligned total-variation distance (L1) — equivalently, EMD
// on the category axis with a 0/1 ground distance.
//
// The paper's Eq. (1)–(4) defines δ_ij = |d_i(y) − d'_j(y)| — a ground
// distance over the *masses themselves*, blind to which bar a mass
// belongs to. Implemented literally (see EMD below, kept for
// reproduction), that measure cannot tell a correctly-cleaned chart from
// one with the same bar heights on the wrong categories, and real
// cleaning trajectories measured with it are non-monotone noise. The
// label-aligned default restores the semantics the paper's narrative
// (and its SEEDB citation [36]) requires; DESIGN.md documents the
// deviation.
func Default(a, b *vis.Data) float64 {
	if allPositional(a) && allPositional(b) {
		return canonicalNaN(EMD1D(a, b))
	}
	return canonicalNaN(L1(a, b))
}

// canonicalNaN returns d, or math.NaN() when d is a NaN. A chart with a
// NaN mark, or with +Inf and −Inf masses, has a NaN distance, and its
// bits are those of whichever NaN operand the compiled arithmetic met
// first; for a commutative operation that order is the compiler's, so
// it can differ between Default and Baseline, and between builds. One
// NaN keeps the two bit-identical.
func canonicalNaN(d float64) float64 {
	if math.IsNaN(d) {
		return math.NaN()
	}
	return d
}

func allPositional(d *vis.Data) bool {
	if len(d.Points) == 0 {
		return false
	}
	for _, p := range d.Points {
		if !p.HasX {
			return false
		}
	}
	return true
}

// EMD computes the Earth Mover's Distance between two visualizations
// following §II-B exactly: both y series are normalized into probability
// distributions, the ground distance is δ_ij = |d_i(y) − d'_j(y)| (the
// absolute difference of the normalized y masses), and the optimal flow
// F minimizing Σ f_ij·δ_ij subject to Eq. (2)–(3) defines
//
//	EMD = Σ f_ij δ_ij / Σ f_ij.
//
// Two empty visualizations have distance 0; an empty versus a non-empty
// one has distance 1 (maximal, since no mass can flow).
func EMD(a, b *vis.Data) float64 {
	pa, pb := a.NormalizedY(), b.NormalizedY()
	return EMDVectors(pa, pb)
}

// EMDVectors is EMD on already-normalized mass vectors. Exposed so the
// benefit model can reuse normalized intermediates.
func EMDVectors(pa, pb []float64) float64 {
	switch {
	case len(pa) == 0 && len(pb) == 0:
		return 0
	case len(pa) == 0 || len(pb) == 0:
		return 1
	}
	// The ground distance depends only on the mass values themselves, so
	// the transportation problem is one-dimensional in disguise: moving
	// mass between positions p_i and p'_j costs |p_i − p'_j|. The optimal
	// plan is the monotone (sorted) coupling; computing it directly is
	// exact and far faster than the LP for identical results. We keep the
	// flow solver as the reference implementation (tests cross-check).
	sa := append([]float64(nil), pa...)
	sb := append([]float64(nil), pb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	work, total := monotoneCoupling(sa, sb)
	if total <= 0 {
		return 0
	}
	return work / total
}

// emdViaFlow solves the same problem with the min-cost-flow solver. It is
// the literal Eq. (1)–(4) implementation and is used by tests to validate
// the fast path.
func emdViaFlow(pa, pb []float64) float64 {
	switch {
	case len(pa) == 0 && len(pb) == 0:
		return 0
	case len(pa) == 0 || len(pb) == 0:
		return 1
	}
	cost := make([][]float64, len(pa))
	for i := range pa {
		cost[i] = make([]float64, len(pb))
		for j := range pb {
			cost[i][j] = math.Abs(pa[i] - pb[j])
		}
	}
	flow := transportation(pa, pb, cost)
	var work, total float64
	for i := range flow {
		for j := range flow[i] {
			work += flow[i][j] * cost[i][j]
			total += flow[i][j]
		}
	}
	if total <= 0 {
		return 0
	}
	return work / total
}

// monotoneCoupling transports sorted masses sa onto sorted masses sb in
// order, returning (Σ f·δ, Σ f). For a 1-D ground distance the sorted
// greedy coupling is an optimal transportation plan.
func monotoneCoupling(sa, sb []float64) (work, total float64) {
	i, j := 0, 0
	ra, rb := sa[0], sb[0]
	const eps = 1e-15
	for i < len(sa) && j < len(sb) {
		f := ra
		if rb < f {
			f = rb
		}
		if f > 0 {
			work += f * math.Abs(sa[i]-sb[j])
			total += f
		}
		ra -= f
		rb -= f
		if ra <= eps {
			i++
			if i < len(sa) {
				ra = sa[i]
			}
		}
		if rb <= eps {
			j++
			if j < len(sb) {
				rb = sb[j]
			}
		}
	}
	return work, total
}

// EMD1D computes the positional Earth Mover's Distance for charts whose x
// axis is ordered (binned numeric axes): mass p_i sits at position x_i and
// the ground distance is |x_i − x_j|. This is the Wasserstein-1 distance,
// computed by the CDF-difference closed form. Points lacking numeric x
// positions fall back to their index.
func EMD1D(a, b *vis.Data) float64 {
	type wp struct{ x, p float64 }
	extract := func(d *vis.Data) []wp {
		norm := d.NormalizedY()
		out := make([]wp, len(d.Points))
		for i, pt := range d.Points {
			x := float64(i)
			if pt.HasX {
				x = pt.X
			}
			out[i] = wp{x: x, p: norm[i]}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].x < out[j].x })
		return out
	}
	wa, wb := extract(a), extract(b)
	switch {
	case len(wa) == 0 && len(wb) == 0:
		return 0
	case len(wa) == 0 || len(wb) == 0:
		return 1
	}
	// Merge the support points and integrate |CDF_a − CDF_b|.
	var xs []float64
	for _, w := range wa {
		xs = append(xs, w.x)
	}
	for _, w := range wb {
		xs = append(xs, w.x)
	}
	sort.Float64s(xs)
	cdf := func(ws []wp, x float64) float64 {
		s := 0.0
		for _, w := range ws {
			if w.x <= x {
				s += w.p
			}
		}
		return s
	}
	total := 0.0
	for i := 0; i+1 < len(xs); i++ {
		width := xs[i+1] - xs[i]
		if width <= 0 {
			continue
		}
		total += math.Abs(cdf(wa, xs[i])-cdf(wb, xs[i])) * width
	}
	return total
}

// L1 is the label-aligned total variation style distance: ½ Σ_labels
// |p_a(l) − p_b(l)| over normalized series, treating absent labels as 0.
// Summation runs in sorted label order, not map iteration order: float
// addition is order-sensitive, and since this is the default distance
// the benefit model maximizes over, a per-run summation order would put
// last-ULP noise in every benefit — enough to flip strict > comparisons
// in CQG selection between identically-seeded runs.
func L1(a, b *vis.Data) float64 {
	ma, mb := normalizedLabelMap(a), normalizedLabelMap(b)
	sum := 0.0
	for _, l := range unionLabels(ma, mb) {
		sum += math.Abs(ma[l] - mb[l])
	}
	return sum / 2
}

// L2 is the label-aligned Euclidean distance over normalized series.
// Sorted label order for the same reason as L1.
func L2(a, b *vis.Data) float64 {
	ma, mb := normalizedLabelMap(a), normalizedLabelMap(b)
	sum := 0.0
	for _, l := range unionLabels(ma, mb) {
		d := ma[l] - mb[l]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// KL is the label-aligned Kullback-Leibler divergence KL(a ‖ b) with
// additive smoothing so absent labels do not yield infinities.
func KL(a, b *vis.Data) float64 {
	ma, mb := normalizedLabelMap(a), normalizedLabelMap(b)
	labels := unionLabels(ma, mb)
	const eps = 1e-9
	sum := 0.0
	for _, l := range labels {
		pa := ma[l] + eps
		pb := mb[l] + eps
		sum += pa * math.Log(pa/pb)
	}
	if sum < 0 {
		return 0 // smoothing can produce tiny negatives
	}
	return sum
}

// JS is the Jensen-Shannon divergence, a smoothed symmetric KL.
func JS(a, b *vis.Data) float64 {
	ma, mb := normalizedLabelMap(a), normalizedLabelMap(b)
	labels := unionLabels(ma, mb)
	const eps = 1e-9
	sum := 0.0
	for _, l := range labels {
		pa := ma[l] + eps
		pb := mb[l] + eps
		m := (pa + pb) / 2
		sum += pa*math.Log(pa/m)/2 + pb*math.Log(pb/m)/2
	}
	if sum < 0 {
		return 0
	}
	return sum
}

func normalizedLabelMap(d *vis.Data) map[string]float64 {
	norm := d.NormalizedY()
	m := make(map[string]float64, len(d.Points))
	for i, p := range d.Points {
		m[p.Label] += norm[i]
	}
	return m
}

func unionLabels(a, b map[string]float64) []string {
	set := make(map[string]struct{}, len(a)+len(b))
	for l := range a {
		set[l] = struct{}{}
	}
	for l := range b {
		set[l] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
