package em

import (
	"visclean/internal/dataset"
)

// ValuePairKey identifies an unordered pair of attribute values within
// one column.
type ValuePairKey struct {
	Col    int
	V1, V2 string
}

// MakeValuePairKey canonicalizes the value order.
func MakeValuePairKey(col int, v1, v2 string) ValuePairKey {
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	return ValuePairKey{Col: col, V1: v1, V2: v2}
}

// CandidateIndex is a static inverted view of a blocking candidate list:
// for each (column, value pair) the first candidate in list order whose
// endpoints exhibit those two differing values, and for each tuple the
// positions of the candidates touching it, in list order. The candidate
// list and the attribute cells it references are fixed for a session's
// lifetime (cleaning rewrites only the measure column), so the index is
// built once and replaces the per-iteration full scans of ERG
// construction (candidate-pair-by-values lookup, isolated-vertex
// attachment) and the per-candidate map probes of a model refresh with
// O(1)/O(degree) lookups returning the exact same elements.
type CandidateIndex struct {
	pairs    []Pair
	byValue  map[ValuePairKey]Pair
	incident map[dataset.TupleID][]int32
}

// NewCandidateIndex scans candidates once against the given columns.
// The index keeps candidates, which must not change afterwards.
func NewCandidateIndex(t *dataset.Table, candidates []Pair, cols []int) *CandidateIndex {
	ix := &CandidateIndex{
		pairs:    candidates,
		byValue:  make(map[ValuePairKey]Pair),
		incident: make(map[dataset.TupleID][]int32),
	}
	for i, p := range candidates {
		ix.incident[p.A] = append(ix.incident[p.A], int32(i))
		ix.incident[p.B] = append(ix.incident[p.B], int32(i))
		for _, c := range cols {
			va, okA := t.GetByID(p.A, c)
			vb, okB := t.GetByID(p.B, c)
			if !okA || !okB {
				continue
			}
			ta, okA := va.Text()
			tb, okB := vb.Text()
			if !okA || !okB || ta == tb {
				continue
			}
			key := MakeValuePairKey(c, ta, tb)
			if _, dup := ix.byValue[key]; !dup {
				ix.byValue[key] = p
			}
		}
	}
	return ix
}

// PairForValues returns the first candidate exhibiting the value pair.
func (ix *CandidateIndex) PairForValues(col int, v1, v2 string) (Pair, bool) {
	p, ok := ix.byValue[MakeValuePairKey(col, v1, v2)]
	return p, ok
}

// Incident returns the positions in the candidate list of the
// candidates touching id, ascending. Callers must not mutate the
// returned slice.
func (ix *CandidateIndex) Incident(id dataset.TupleID) []int32 {
	return ix.incident[id]
}

// Find returns p's position in the candidate list, walking only the
// candidates incident to p.A.
func (ix *CandidateIndex) Find(p Pair) (int, bool) {
	for _, i := range ix.incident[p.A] {
		if ix.pairs[i] == p {
			return int(i), true
		}
	}
	return 0, false
}
