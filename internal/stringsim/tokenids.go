package stringsim

import "slices"

// Vocab numbers tokens densely in first-seen order, so a token set
// becomes a sorted id list and set overlap becomes a merge instead of
// map probes. Ids from different Vocabs are not comparable, except that
// an extension (see Extend) keeps its base's ids. Not safe for
// concurrent use.
type Vocab struct {
	base *Vocab           // read-only vocabulary this one extends, or nil
	off  int32            // base.Len(): the first id this Vocab mints
	ids  map[string]int32 // tokens minted here
	toks []string         // toks[i] has id off+i
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{ids: make(map[string]int32)} }

// Extend returns a vocabulary that gives every token of v its id in v
// and numbers any other token from v.Len() on. It only ever reads v, so
// once v stops changing any number of extensions may share it, also
// concurrently.
func (v *Vocab) Extend() *Vocab {
	return &Vocab{base: v, off: int32(v.Len()), ids: make(map[string]int32)}
}

// Len returns the number of ids the vocabulary has handed out, its
// base's included.
func (v *Vocab) Len() int { return int(v.off) + len(v.toks) }

// Token returns the token numbered id.
func (v *Vocab) Token(id int32) string {
	if id < v.off {
		return v.base.Token(id)
	}
	return v.toks[id-v.off]
}

func (v *Vocab) find(tok string) (int32, bool) {
	if v.base != nil {
		if id, ok := v.base.find(tok); ok {
			return id, true
		}
	}
	id, ok := v.ids[tok]
	return id, ok
}

// TokenIDs returns the ids of TokenSet(s), sorted ascending.
func (v *Vocab) TokenIDs(s string) []int32 {
	toks := Tokenize(s)
	ids := make([]int32, len(toks))
	for i, tok := range toks {
		id, ok := v.find(tok)
		if !ok {
			id = int32(v.Len())
			v.ids[tok] = id
			v.toks = append(v.toks, tok)
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
	// A branch-free merge: ids are spread over the vocabulary, so which
	// side advances is a coin flip a branch predictor cannot learn. On
	// a 2-vCPU x86-64 VM it made a D1 kNN search (knn.BenchmarkNearest)
	// about a quarter faster than a three-way switch; FeaturesOf, whose
	// cost is in Jaro-Winkler, did not move.
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x, y := a[i], b[j]
		di, dj, eq := 0, 0, 0
		if x <= y {
			di = 1
		}
		if y <= x {
			dj = 1
		}
		if x == y {
			eq = 1
		}
		i += di
		j += dj
		inter += eq
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
