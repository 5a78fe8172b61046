package em

import (
	"slices"

	"visclean/internal/dataset"
	"visclean/internal/rf"
)

// Matcher is the entity-matching model: a random forest over pair
// features, retrained as user labels accumulate (framework step 6 feeds
// back into step 2). Before any training it falls back to a similarity
// heuristic so active learning can bootstrap.
type Matcher struct {
	fe     *FeatureExtractor
	cfg    rf.Config
	labels map[Pair]bool
	forest *rf.Forest
}

// NewMatcher builds a matcher for the table's schema.
func NewMatcher(t *dataset.Table, cfg rf.Config) *Matcher {
	return &Matcher{
		fe:     NewFeatureExtractor(t),
		cfg:    cfg,
		labels: make(map[Pair]bool),
	}
}

// AddLabel records a user (or seed) label for a pair. Relabeling
// overwrites, which is how corrected answers propagate.
func (m *Matcher) AddLabel(p Pair, match bool) { m.labels[p] = match }

// Forest returns the trained forest, nil before the first successful
// Train. Forests are immutable after training, so the returned pointer
// may be shared (the artifact cache does).
func (m *Matcher) Forest() *rf.Forest { return m.forest }

// SetForest installs a pre-trained forest, warm-starting the matcher
// from the artifact cache. Callers must only install a forest equal to
// what Train would produce on the matcher's current labels — rf.Train
// is deterministic, so a forest trained on the same table content,
// labels and config qualifies; the determinism suite enforces it.
func (m *Matcher) SetForest(f *rf.Forest) { m.forest = f }

// Label reports a recorded label and whether one exists.
func (m *Matcher) Label(p Pair) (match, ok bool) {
	match, ok = m.labels[p]
	return match, ok
}

// LabeledPairs returns the labeled pairs in deterministic order.
func (m *Matcher) LabeledPairs() []Pair {
	out := make([]Pair, 0, len(m.labels))
	for p := range m.labels {
		out = append(out, p)
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// Train fits the forest on the current labels against the given table.
// With fewer than two labels or a single class it leaves the heuristic in
// place (training a forest on one class would pin every probability to 0
// or 1 and destroy active learning).
func (m *Matcher) Train(t *dataset.Table) error {
	pairs := m.LabeledPairs()
	x := m.fe.FeaturesOf(t, pairs, m.cfg.Workers)
	var y []int
	pos, neg := 0, 0
	for _, p := range pairs {
		if m.labels[p] {
			y = append(y, 1)
			pos++
		} else {
			y = append(y, 0)
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		m.forest = nil
		return nil
	}
	f, err := rf.Train(x, y, m.cfg)
	if err != nil {
		return err
	}
	m.forest = f
	return nil
}

// Prob returns the matching probability of a pair. Labeled pairs return
// their label (1 or 0) — the user's answer is ground truth from the
// system's perspective. Otherwise the forest predicts; before training, a
// similarity heuristic (mean of the string-similarity features) stands in.
func (m *Matcher) Prob(t *dataset.Table, p Pair) float64 {
	return m.ProbWithFeatures(p, m.Features(t, p))
}

// Features exposes the pair feature vector so callers maintaining a
// feature cache (feature extraction dominates probability refresh on
// large candidate sets) can reuse vectors across retrains.
func (m *Matcher) Features(t *dataset.Table, p Pair) []float64 {
	return m.fe.Features(t, p.A, p.B)
}

// FeaturesOf is Features for a batch of pairs, sharing string work
// across the batch and fanning it out over the forest's Workers (see
// FeatureExtractor.FeaturesOf).
func (m *Matcher) FeaturesOf(t *dataset.Table, pairs []Pair) [][]float64 {
	return m.fe.FeaturesOf(t, pairs, m.cfg.Workers)
}

// ProbsOf sets out[i] to ProbWithFeatures(pairs[i], feats[i]) for every
// pair, fanning out over the forest's Workers. Item i writes only
// out[i], so the result does not depend on the worker count.
func (m *Matcher) ProbsOf(pairs []Pair, feats [][]float64, out []float64) {
	fanOut(m.cfg.Workers, len(pairs), func(i int) {
		out[i] = m.ProbWithFeatures(pairs[i], feats[i])
	})
}

// ProbWithFeatures is Prob for a precomputed feature vector.
func (m *Matcher) ProbWithFeatures(p Pair, feats []float64) float64 {
	if match, ok := m.labels[p]; ok {
		if match {
			return 1
		}
		return 0
	}
	if m.forest != nil {
		// Blend the forest with the similarity heuristic. Early in a
		// session the forest is trained on a few dozen labels and its
		// predictions on marginal pairs flip with every retrain; the
		// heuristic is crude but perfectly stable, and the blend keeps
		// the auto-merged entity set from thrashing between iterations.
		return 0.7*m.forest.PredictProba(feats) + 0.3*m.heuristic(feats)
	}
	return m.heuristic(feats)
}

// heuristic averages the per-attribute similarity features (the first
// feature of each attribute block), a crude but monotone match signal.
func (m *Matcher) heuristic(feats []float64) float64 {
	sum, n := 0.0, 0
	i := 0
	for _, col := range m.fe.schema {
		sum += feats[i]
		n++
		if col.Kind == dataset.String {
			i += 3
		} else {
			i += 2
		}
	}
	if n == 0 {
		return 0.5
	}
	return sum / float64(n)
}

// ScoredPair is a candidate pair with its current match probability.
type ScoredPair struct {
	Pair Pair
	Prob float64
}
