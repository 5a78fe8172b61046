// Package impute implements the paper's missing-value repair generator
// (§IV, Q_M): for a tuple missing its Y value, find the k most similar
// tuples — similarity being the token Jaccard of the concatenation of all
// attributes — and suggest the mean of their Y values.
package impute

import (
	"visclean/internal/dataset"
	"visclean/internal/knn"
)

// DefaultK is the paper's neighbourhood size (k=5).
const DefaultK = 5

// Suggestion is a proposed repair for one tuple's Y cell.
type Suggestion struct {
	ID    dataset.TupleID
	Value float64
	// Neighbors are the tuple ids the value was averaged from, most
	// similar first; the GUI shows them as context.
	Neighbors []dataset.TupleID
}

// Imputer ranks neighbours through a shared kNN index for value
// suggestion. Build one per iteration; the token index itself can be
// reused across iterations (see knn.Index).
type Imputer struct {
	table *dataset.Table
	yCol  int
	k     int
	ix    *knn.Index
}

// New builds an imputer over column yCol of t with neighbourhood size k
// (k <= 0 selects DefaultK), constructing a private kNN index. The
// concatenated-row token sets exclude the Y column itself so a
// candidate's own (possibly wrong) Y value does not influence which
// neighbours are chosen — required for outlier repair where Y is present
// but suspect.
func New(t *dataset.Table, yCol, k int) *Imputer {
	return NewWithIndex(knn.NewIndex(t, yCol), k)
}

// NewWithIndex builds an imputer over a prebuilt kNN index (the Y column
// is the index's skip column), sharing the tokenization cost with other
// consumers of the same index.
func NewWithIndex(ix *knn.Index, k int) *Imputer {
	if k <= 0 {
		k = DefaultK
	}
	return &Imputer{table: ix.Table(), yCol: ix.SkipCol(), k: k, ix: ix}
}

// SuggestFor computes the repair suggestion for one tuple id. ok is false
// when the tuple does not exist or no neighbour has a usable Y value.
func (im *Imputer) SuggestFor(id dataset.TupleID) (Suggestion, bool) {
	row, ok := im.table.RowIndex(id)
	if !ok {
		return Suggestion{}, false
	}
	neighbors := im.ix.Nearest(row, im.k, func(i int) bool {
		_, hasY := im.table.Get(i, im.yCol).Float()
		return hasY
	})
	if len(neighbors) == 0 {
		return Suggestion{}, false
	}
	sum := 0.0
	s := Suggestion{ID: id}
	for _, n := range neighbors {
		y, _ := im.table.Get(n.Row, im.yCol).Float()
		sum += y
		s.Neighbors = append(s.Neighbors, n.ID)
	}
	s.Value = sum / float64(len(neighbors))
	return s, true
}
