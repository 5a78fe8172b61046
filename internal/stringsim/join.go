package stringsim

import (
	"cmp"
	"math"
	"slices"
)

// Pair is one self-join result: indices into the joined slice, I < J,
// and the token-Jaccard similarity of the two strings.
type Pair struct {
	I, J int
	Sim  float64
}

// SelfJoin finds all unordered pairs within vals whose token-Jaccard
// similarity is strictly greater than threshold, using the
// prefix-filtering technique from the string-similarity-join literature
// [16]: each value's token-id set is ordered by global token frequency
// (rare first, ties by id), and two sets can only reach the threshold
// if their rare-token prefixes share at least one token. A value with
// no tokens joins nothing.
//
// Each value's tokens are numbered once through one Vocab. Values are
// visited in order; a value probes the prefix postings of the values
// before it, so each pair is verified at most once, with JaccardIDs,
// which returns the very float64 JaccardSets returns. Prefix filtering
// loses no pair under any global token order, so the pair set is the
// one an all-pairs scan finds.
//
// The result is sorted by descending similarity, ties broken by (I, J),
// so downstream question generation is deterministic.
func SelfJoin(vals []string, threshold float64) []Pair {
	if threshold < 0 {
		threshold = 0
	}
	if threshold >= 1 {
		// The result predicate is sim > threshold, so threshold >= 1
		// would match nothing (Jaccard never exceeds 1). Clamp to just
		// below 1: only identical token sets (sim == 1) qualify.
		threshold = math.Nextafter(1, 0)
	}
	vocab := NewVocab()
	sets := make([][]int32, len(vals))
	for i, s := range vals {
		sets[i] = vocab.TokenIDs(s)
	}
	freq := make([]int32, vocab.Len())
	for _, set := range sets {
		for _, id := range set {
			freq[id]++
		}
	}
	rareFirst := func(a, b int32) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}

	// index[t] lists the values, ascending, whose prefix holds token t;
	// stamp[j] == i+1 marks j as already a candidate of value i.
	index := make([][]int32, vocab.Len())
	stamp := make([]int32, len(vals))
	var ordered, cands []int32
	var out []Pair
	for i, set := range sets {
		ordered = append(ordered[:0], set...)
		slices.SortFunc(ordered, rareFirst)
		prefix := ordered[:prefixLen(len(ordered), threshold)]
		cands = cands[:0]
		for _, id := range prefix {
			for _, j := range index[id] {
				if stamp[j] != int32(i+1) {
					stamp[j] = int32(i + 1)
					cands = append(cands, j)
				}
			}
		}
		for _, j := range cands {
			if sim := JaccardIDs(sets[j], set); sim > threshold {
				out = append(out, Pair{I: int(j), J: i, Sim: sim})
			}
		}
		for _, id := range prefix {
			index[id] = append(index[id], int32(i))
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
			return c
		}
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	})
	return out
}

// prefixLen is the prefix-filter length of an l-token set for the
// Jaccard threshold t: a set whose similarity with another exceeds t
// shares a token with it among its first l − ceil(t·l) + 1 tokens in
// any global order.
func prefixLen(l int, t float64) int {
	need := l - int(math.Ceil(t*float64(l))) + 1
	return min(max(need, 1), l)
}
