package em

import (
	"cmp"
	"slices"

	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// Pair is an unordered candidate tuple pair with A < B.
type Pair struct {
	A, B dataset.TupleID
}

// MakePair canonicalizes an unordered pair.
func MakePair(a, b dataset.TupleID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// BlockingConfig controls candidate generation.
type BlockingConfig struct {
	// KeyColumns are the column indices whose tokens form blocking keys.
	// Tuples sharing any token in any key column become candidates.
	KeyColumns []int
	// MaxBlockSize skips tokens shared by more tuples than this (stop
	// words like "the" or "conference" would otherwise create quadratic
	// blocks). 0 means DefaultMaxBlockSize.
	MaxBlockSize int
}

// DefaultMaxBlockSize bounds the per-token block size.
const DefaultMaxBlockSize = 120

// Candidates generates the candidate duplicate pairs of a table via token
// blocking over the configured key columns. The result is deterministic:
// sorted by (A, B).
func Candidates(t *dataset.Table, cfg BlockingConfig) []Pair {
	maxBlock := cfg.MaxBlockSize
	if maxBlock <= 0 {
		maxBlock = DefaultMaxBlockSize
	}
	keyCols := cfg.KeyColumns
	if len(keyCols) == 0 {
		// Default: first string column.
		for c, col := range t.Schema() {
			if col.Kind == dataset.String {
				keyCols = []int{c}
				break
			}
		}
	}

	blocks := make(map[string][]dataset.TupleID)
	for i := 0; i < t.NumRows(); i++ {
		id := t.ID(i)
		for _, c := range keyCols {
			s, ok := t.Get(i, c).Text()
			if !ok {
				continue
			}
			for _, tok := range stringsim.Tokenize(s) {
				blocks[tok] = append(blocks[tok], id)
			}
		}
	}

	var out []Pair
	for _, ids := range blocks {
		if len(ids) > maxBlock || len(ids) < 2 {
			continue
		}
		// A tuple appears in a block once per occurrence of the token in
		// its key cells. A row's tokens are appended together, so its
		// repeats are adjacent and Compact drops them; the size limit
		// above still counts them.
		uniq := slices.Compact(ids)
		for i := 0; i < len(uniq); i++ {
			for j := i + 1; j < len(uniq); j++ {
				out = append(out, MakePair(uniq[i], uniq[j]))
			}
		}
	}
	slices.SortFunc(out, comparePairs)
	return slices.Compact(out)
}

// comparePairs orders pairs by (A, B).
func comparePairs(p, q Pair) int {
	if c := cmp.Compare(p.A, q.A); c != 0 {
		return c
	}
	return cmp.Compare(p.B, q.B)
}
