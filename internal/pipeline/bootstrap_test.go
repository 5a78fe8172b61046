package pipeline

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"visclean/internal/artifact"
	"visclean/internal/dataset"
	"visclean/internal/em"
)

// seedLabelsRef is the seed pick seedLabels must reproduce: every
// candidate sorted by descending probability, then ascending (A, B),
// the matches taken from the front and the non-matches from the back.
func seedLabelsRef(cands []em.Pair, probs []float64) []seedLabel {
	all := make([]em.ScoredPair, len(cands))
	for i, p := range cands {
		all[i] = em.ScoredPair{Pair: p, Prob: probs[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Prob != all[j].Prob {
			return all[i].Prob > all[j].Prob
		}
		if all[i].Pair.A != all[j].Pair.A {
			return all[i].Pair.A < all[j].Pair.A
		}
		return all[i].Pair.B < all[j].Pair.B
	})
	var labels []seedLabel
	for i := 0; i < len(all) && i < maxSeedPerClass && all[i].Prob >= seedMatchMin; i++ {
		labels = append(labels, seedLabel{pair: all[i].Pair, match: true})
	}
	for i, n := len(all)-1, 0; i >= 0 && n < maxSeedPerClass && all[i].Prob <= seedNonMatchMax; i, n = i-1, n+1 {
		labels = append(labels, seedLabel{pair: all[i].Pair, match: false})
	}
	return labels
}

// seedCase draws n distinct pairs in shuffled order with probabilities
// concentrated on the thresholds and a few shared values, so exact
// threshold hits and equal probabilities broken by (A, B) are common.
func seedCase(rng *rand.Rand, n int) ([]em.Pair, []float64) {
	spots := []float64{0, 0.1, 0.55, math.Nextafter(0.55, 1), 0.7, math.Nextafter(0.88, 0), 0.88, 0.9, 1}
	seen := map[em.Pair]bool{}
	var cands []em.Pair
	for len(cands) < n {
		p := em.MakePair(dataset.TupleID(rng.Intn(3*n+2)), dataset.TupleID(rng.Intn(3*n+2)))
		if p.A == p.B || seen[p] {
			continue
		}
		seen[p] = true
		cands = append(cands, p)
	}
	probs := make([]float64, n)
	for i := range probs {
		if rng.Intn(3) == 0 {
			probs[i] = rng.Float64()
		} else {
			probs[i] = spots[rng.Intn(len(spots))]
		}
	}
	return cands, probs
}

// TestSeedLabelsMatchFullSort holds the bounded seed pick to the full
// sort on generated probability lists: fewer and more than
// maxSeedPerClass candidates per class, probabilities exactly at both
// thresholds, and equal probabilities ordered by (A, B).
func TestSeedLabelsMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 5, 29, 30, 31, 59, 60, 61, 200, 2000} {
		for rep := 0; rep < 5; rep++ {
			cands, probs := seedCase(rng, n)
			got, want := seedLabels(cands, probs), seedLabelsRef(cands, probs)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d rep=%d: seedLabels = %v\nfull sort    %v", n, rep, got, want)
			}
		}
	}
	// All probabilities equal and at a threshold: the order is (A, B)
	// alone, ascending for matches and descending for non-matches.
	for _, pr := range []float64{seedMatchMin, seedNonMatchMax} {
		cands, _ := seedCase(rng, 100)
		probs := make([]float64, len(cands))
		for i := range probs {
			probs[i] = pr
		}
		got := seedLabels(cands, probs)
		if len(got) != maxSeedPerClass || !slices.Equal(got, seedLabelsRef(cands, probs)) {
			t.Fatalf("p=%v for all: seedLabels = %v", pr, got)
		}
	}
}

// TestSeedLabelsSkipNaN: a NaN probability meets neither threshold,
// so a NaN candidate is never a seed. A loaded CSV with NaN or Inf in
// a numeric column can give one: +Inf − +Inf is a NaN feature. The
// pick over a list with NaNs equals the full sort over the list without
// them.
func TestSeedLabelsSkipNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 100, 1000} {
		cands, probs := seedCase(rng, n)
		var keptC []em.Pair
		var keptP []float64
		for i := range probs {
			if rng.Intn(3) == 0 {
				probs[i] = math.NaN()
				continue
			}
			keptC = append(keptC, cands[i])
			keptP = append(keptP, probs[i])
		}
		got := seedLabels(cands, probs)
		if want := seedLabelsRef(keptC, keptP); !slices.Equal(got, want) {
			t.Fatalf("n=%d: seedLabels with NaNs = %v\nfull sort without them %v", n, got, want)
		}
	}
	cands, _ := seedCase(rng, 10)
	nan := make([]float64, len(cands))
	for i := range nan {
		nan[i] = math.NaN()
	}
	if got := seedLabels(cands, nan); len(got) != 0 {
		t.Fatalf("all-NaN probabilities seeded %v", got)
	}
}

// TestOpenPhaseMetric: a cold open observes every bootstrap step once
// into visclean_session_open_phase_seconds, and a warm open served from
// the artifact cache observes none. TestMain turns obs on.
func TestOpenPhaseMetric(t *testing.T) {
	phases := []string{"blocking", "features", "seed", "train", "probs"}
	counts := func() []int64 {
		out := make([]int64, len(phases))
		for i, ph := range phases {
			out[i] = obsOpenPhaseSeconds[ph].Count()
		}
		return out
	}
	cache := artifact.New(0)
	start := counts()
	cold, _ := newArtSession(t, cache, 7)
	defer cold.Close()
	afterCold := counts()
	warm, _ := newArtSession(t, cache, 7)
	defer warm.Close()
	afterWarm := counts()
	for i, ph := range phases {
		if d := afterCold[i] - start[i]; d != 1 {
			t.Errorf("phase %s: cold open added %d samples, want 1", ph, d)
		}
		if d := afterWarm[i] - afterCold[i]; d != 0 {
			t.Errorf("phase %s: warm open added %d samples, want 0", ph, d)
		}
	}
}
