package em

import (
	"slices"

	"visclean/internal/dataset"
)

// CandidateIndex is a static inverted view of a blocking candidate list:
// for each tuple, the positions of the candidates touching it, in list
// order, stored as one CSR array indexed by tuple id (a tuple id is its
// row position, so ids are dense). The candidate list and the attribute
// cells it references are fixed for a session's lifetime (cleaning
// rewrites only the measure column), so the index is built once and
// replaces the per-iteration full scans of ERG construction
// (candidate-pair-by-values lookup, isolated-vertex attachment) and the
// per-candidate map probes of a model refresh with O(degree) walks
// returning the exact same elements.
type CandidateIndex struct {
	table *dataset.Table
	pairs []Pair
	// The candidates touching tuple id are at positions
	// pos[start[id]:start[id+1]], ascending.
	start []int32
	pos   []int32
}

// NewCandidateIndex lays the incident lists of candidates out in two
// passes: count per tuple, then fill in list order. The index keeps
// candidates and t, whose attribute cells must not change afterwards.
func NewCandidateIndex(t *dataset.Table, candidates []Pair) *CandidateIndex {
	n := 0
	for _, p := range candidates {
		n = max(n, int(p.A)+1, int(p.B)+1)
	}
	start := make([]int32, n+1)
	for _, p := range candidates {
		start[p.A+1]++
		start[p.B+1]++
	}
	for id := 1; id <= n; id++ {
		start[id] += start[id-1]
	}
	pos := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for i, p := range candidates {
		pos[next[p.A]] = int32(i)
		next[p.A]++
		pos[next[p.B]] = int32(i)
		next[p.B]++
	}
	return &CandidateIndex{table: t, pairs: candidates, start: start, pos: pos}
}

// PairForValues returns the first candidate in list order whose two
// endpoints carry the distinct texts v1 and v2 in column col, one each.
// rows1 and rows2 list the rows of the indexed table whose column col
// holds v1 and v2. It walks the incident candidates of the shorter list's
// tuples, each list in order, and keeps the earliest position whose
// other endpoint carries the other value.
func (ix *CandidateIndex) PairForValues(col int, v1, v2 string, rows1, rows2 []int) (Pair, bool) {
	if v1 == v2 {
		return Pair{}, false
	}
	rows, other := rows1, v2
	if len(rows2) < len(rows1) {
		rows, other = rows2, v1
	}
	best := -1
	for _, r := range rows {
		id := ix.table.ID(r)
		for _, i := range ix.Incident(id) {
			if best >= 0 && int(i) >= best {
				break
			}
			p := ix.pairs[i]
			o := p.A
			if o == id {
				o = p.B
			}
			if v, ok := ix.table.GetByID(o, col); ok {
				if txt, ok := v.Text(); ok && txt == other {
					best = int(i)
					break
				}
			}
		}
	}
	if best < 0 {
		return Pair{}, false
	}
	return ix.pairs[best], true
}

// Incident returns the positions in the candidate list of the
// candidates touching id, ascending, or nil when there are none.
// Callers must not mutate the returned slice.
func (ix *CandidateIndex) Incident(id dataset.TupleID) []int32 {
	if id < 0 || int(id)+1 >= len(ix.start) {
		return nil
	}
	lo, hi := ix.start[id], ix.start[id+1]
	if lo == hi {
		return nil
	}
	return ix.pos[lo:hi:hi]
}

// Find returns p's position in the candidate list, walking only the
// candidates incident to p.A.
func (ix *CandidateIndex) Find(p Pair) (int, bool) {
	for _, i := range ix.Incident(p.A) {
		if ix.pairs[i] == p {
			return int(i), true
		}
	}
	return 0, false
}
