package stringsim

import "slices"

// Vocab numbers tokens densely in first-seen order, so a token set
// becomes a sorted id list and set overlap becomes a merge instead of
// map probes. Ids from different Vocabs are not comparable. Not safe for
// concurrent use.
type Vocab struct{ ids map[string]int32 }

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{ids: make(map[string]int32)} }

// TokenIDs returns the ids of TokenSet(s), sorted ascending.
func (v *Vocab) TokenIDs(s string) []int32 {
	toks := Tokenize(s)
	ids := make([]int32, len(toks))
	for i, tok := range toks {
		id, ok := v.ids[tok]
		if !ok {
			id = int32(len(v.ids))
			v.ids[tok] = id
		}
		ids[i] = id
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// JaccardIDs is JaccardSets over two TokenIDs results of one Vocab. It
// returns the very float64 JaccardSets returns for the token sets: a
// Vocab maps distinct tokens to distinct ids, so both compute the same
// intersection and union counts and divide them the same way.
func JaccardIDs(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
