// Package knn provides a shared nearest-neighbour index over a table's
// row token sets. The missing-value imputer and the outlier repairer
// both rank candidate rows by the token Jaccard of the concatenated
// non-measure attributes; before this package each of them tokenized the
// whole table privately, paying the dominant detection cost twice per
// iteration. One Index is built per table (the pipeline caches it for
// the session: token sets exclude the measure column, so measure repairs
// never stale it; attribute standardization does change the effective
// cell text, which the pipeline pushes in through ResetRows).
//
// A row's token set is a sorted []int32 of ids from one
// stringsim.Vocab. A bounded search walks the probe's token postings
// (per token id, the rows holding it) to count each row's intersection
// with the probe, and scores only the rows that share a token, dividing
// the same two integers stringsim.JaccardIDs does, so a score is the
// very float64 a string-set Jaccard returns; unbounded searches and
// probes with no tokens score every row with JaccardIDs. A Base is the
// raw tokenization frozen for sharing: indexes bound to it share its id
// sets and vocabulary read-only and number the tokens it lacks in a
// private extension of the vocabulary; each index builds its own
// postings.
//
// This is reproduction infrastructure — the paper's kNN-based imputation
// and repair (§III) do not specify an index; this one exists so the
// reproduction's detection phase scales.
package knn

import (
	"math"
	"slices"
	"sort"
	"sync"

	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// Canon maps a cell to the text that gets tokenized. The pipeline uses
// it to tokenize attribute cells through the session's value
// standardizers, so rows whose raw values are approved synonyms share
// tokens. A nil Canon (or a nil result path) falls back to
// Value.String(), the historical behaviour.
type Canon func(col int, v dataset.Value) string

// Index holds per-row token sets for similarity search. Safe for
// concurrent Nearest calls between mutations; ResetRows must not race
// with readers.
type Index struct {
	table   *dataset.Table
	skipCol int
	canon   Canon
	// vocab numbers the tokens of rows; for an index bound to a Base it
	// extends the Base's vocabulary, which it never writes.
	vocab *stringsim.Vocab
	// rows[r] is row r's sorted token-id set. ResetRows replaces a
	// row's slice wholesale and never writes into one, so sets may be
	// shared with a Base.
	rows [][]int32
	// post lists, per token id, the rows holding it. The first bounded
	// Nearest since construction or the last ResetRows builds it
	// through postOnce; it is this index's own, never a Base's.
	postOnce *sync.Once
	post     postings
}

// postings is a CSR inverted index over rows' token-id sets: the rows
// holding token id t are rows[start[t]:start[t+1]], ascending.
type postings struct {
	start []int32
	rows  []int32
}

func newPostings(sets [][]int32, vocab int) postings {
	start := make([]int32, vocab+1)
	for _, set := range sets {
		for _, id := range set {
			start[id+1]++
		}
	}
	for t := 1; t <= vocab; t++ {
		start[t] += start[t-1]
	}
	rows := make([]int32, start[vocab])
	next := slices.Clone(start[:vocab])
	for r, set := range sets {
		for _, id := range set {
			rows[next[id]] = int32(r)
			next[id]++
		}
	}
	return postings{start: start, rows: rows}
}

// NewIndex tokenizes every row of t, excluding skipCol (the measure
// column, so a row's own — possibly corrupt — measure value never
// influences which neighbours are chosen).
func NewIndex(t *dataset.Table, skipCol int) *Index {
	return NewIndexCanon(t, skipCol, nil)
}

// NewIndexCanon is NewIndex with every cell routed through canon before
// tokenization.
func NewIndexCanon(t *dataset.Table, skipCol int, canon Canon) *Index {
	ix := &Index{table: t, skipCol: skipCol, canon: canon, vocab: stringsim.NewVocab(), postOnce: new(sync.Once)}
	ix.rows = ix.tokenizeAll()
	return ix
}

// cellKey identifies a cell's content within its column: equal keys
// render to the same text under any Canon that is a function of the
// cell. Numbers key by their bits so -0 and 0 stay apart.
type cellKey struct {
	col  int
	null bool
	text string
	bits uint64
}

func keyOf(col int, v dataset.Value) cellKey {
	if f, ok := v.Float(); ok {
		return cellKey{col: col, bits: math.Float64bits(f)}
	}
	txt, _ := v.Text()
	return cellKey{col: col, null: v.IsNull(), text: txt}
}

// tokenizeAll builds every row's id set, tokenizing each distinct
// (column, cell) once. The sets share one backing array.
func (ix *Index) tokenizeAll() [][]int32 {
	n := ix.table.NumRows()
	cells := make(map[cellKey][]int32)
	flat := make([]int32, 0, 8*n)
	ends := make([]int, n)
	for r := 0; r < n; r++ {
		start := len(flat)
		for c := 0; c < ix.table.NumCols(); c++ {
			if c == ix.skipCol {
				continue
			}
			v := ix.table.Get(r, c)
			k := keyOf(c, v)
			ids, ok := cells[k]
			if !ok {
				ids = ix.vocab.TokenIDs(ix.text(c, v))
				cells[k] = ids
			}
			flat = append(flat, ids...)
		}
		flat = flat[:start+len(sortedSet(flat[start:]))]
		ends[r] = len(flat)
	}
	rows := make([][]int32, n)
	start := 0
	for r, end := range ends {
		rows[r] = flat[start:end:end]
		start = end
	}
	return rows
}

// sortedSet sorts ids in place and drops duplicates, returning the
// shortened prefix.
func sortedSet(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// text is the text a cell tokenizes to.
func (ix *Index) text(col int, v dataset.Value) string {
	if ix.canon != nil {
		return ix.canon(col, v)
	}
	return v.String()
}

// rowSet tokenizes one row afresh against the current canon.
func (ix *Index) rowSet(row int) []int32 {
	var ids []int32
	for c := 0; c < ix.table.NumCols(); c++ {
		if c != ix.skipCol {
			ids = append(ids, ix.vocab.TokenIDs(ix.text(c, ix.table.Get(row, c)))...)
		}
	}
	return sortedSet(ids)
}

// ResetRows re-tokenizes the given rows against the table's (and canon's)
// current state and drops the postings, which the next bounded Nearest
// rebuilds. The pipeline calls it when an approved attribute synonym
// changes the canonical form of a value those rows carry.
func (ix *Index) ResetRows(rows []int) {
	for _, r := range rows {
		if r >= 0 && r < len(ix.rows) {
			ix.rows[r] = ix.rowSet(r)
		}
	}
	ix.postOnce, ix.post = new(sync.Once), postings{}
}

// Table returns the indexed table.
func (ix *Index) Table() *dataset.Table { return ix.table }

// SkipCol returns the excluded column index.
func (ix *Index) SkipCol() int { return ix.skipCol }

// Tokens returns the token set of one row, sorted ascending. It decodes
// the row's ids, so sets of indexes with different vocabularies compare
// equal exactly when they hold the same tokens.
func (ix *Index) Tokens(row int) []string {
	toks := make([]string, len(ix.rows[row]))
	for i, id := range ix.rows[row] {
		toks[i] = ix.vocab.Token(id)
	}
	sort.Strings(toks)
	return toks
}

// Sim returns the token Jaccard similarity of rows a and b.
func (ix *Index) Sim(a, b int) float64 {
	return stringsim.JaccardIDs(ix.rows[a], ix.rows[b])
}

// Neighbor is one similarity-ranked candidate row.
type Neighbor struct {
	Row int
	ID  dataset.TupleID
	Sim float64
}

// ranksBefore is the neighbour order: descending similarity, then
// ascending tuple id. Tuple ids are unique, so it is a strict total
// order on a table's rows.
func (a Neighbor) ranksBefore(b Neighbor) bool {
	return a.Sim > b.Sim || (a.Sim == b.Sim && a.ID < b.ID)
}

// Insert places nb into ns, a list in neighbour order (descending
// similarity, ascending tuple id) capped at k entries when k > 0, and
// reports whether the list changed. It is the bounded top-k buffer of
// Nearest, and keeps a cached neighbour list exact when a new row
// becomes a candidate.
func Insert(ns []Neighbor, nb Neighbor, k int) ([]Neighbor, bool) {
	if k > 0 && len(ns) >= k && !nb.ranksBefore(ns[len(ns)-1]) {
		return ns, false
	}
	pos := len(ns)
	for pos > 0 && nb.ranksBefore(ns[pos-1]) {
		pos--
	}
	ns = slices.Insert(ns, pos, nb)
	if k > 0 && len(ns) > k {
		ns = ns[:k]
	}
	return ns, true
}

// Nearest returns up to k rows most similar to row, excluding row itself
// and any candidate rejected by accept (nil accepts all), ordered by
// descending similarity with ascending tuple id as the tiebreak — the
// deterministic ranking the imputer has always used. k ≤ 0 returns every
// accepted row.
//
// A bounded search (0 < k < rows) over a probe with tokens counts, from
// the probe's postings, each row's intersection with it, and offers
// every accepted row that shares a token to a bounded buffer (Insert)
// at float64(inter)/float64(union), the division JaccardIDs ends with.
// If fewer than k such rows exist, the accepted rows sharing no token
// fill the rest at similarity 0, in ascending tuple id. The strict rank
// order makes the buffer exactly the first k of a full sort. Unbounded
// searches, and probes with no tokens (two empty sets score 1), score
// every accepted row with JaccardIDs.
func (ix *Index) Nearest(row, k int, accept func(row int) bool) []Neighbor {
	probe := ix.rows[row]
	if k <= 0 || k >= len(ix.rows) || len(probe) == 0 {
		return ix.scan(row, k, accept)
	}
	ix.postOnce.Do(func() { ix.post = newPostings(ix.rows, ix.vocab.Len()) })
	inter := make([]int32, len(ix.rows))
	for _, id := range probe {
		for _, r := range ix.post.rows[ix.post.start[id]:ix.post.start[id+1]] {
			inter[r]++
		}
	}
	ns := make([]Neighbor, 0, k+1)
	for i, n := range inter {
		if n == 0 || i == row || (accept != nil && !accept(i)) {
			continue
		}
		sim := float64(n) / float64(len(probe)+len(ix.rows[i])-int(n))
		ns, _ = Insert(ns, Neighbor{Row: i, ID: ix.table.ID(i), Sim: sim}, k)
	}
	if len(ns) < k {
		// Rows sharing no token score 0; the probe is never one of them.
		for i, n := range inter {
			if n == 0 && (accept == nil || accept(i)) {
				ns, _ = Insert(ns, Neighbor{Row: i, ID: ix.table.ID(i)}, k)
			}
		}
	}
	return ns
}

// scan is Nearest scoring every accepted row with JaccardIDs.
func (ix *Index) scan(row, k int, accept func(row int) bool) []Neighbor {
	probe := ix.rows[row]
	bounded := k > 0 && k < len(ix.rows)
	var ns []Neighbor
	if bounded {
		ns = make([]Neighbor, 0, k+1)
	}
	for i, set := range ix.rows {
		if i == row || (accept != nil && !accept(i)) {
			continue
		}
		nb := Neighbor{Row: i, ID: ix.table.ID(i), Sim: stringsim.JaccardIDs(probe, set)}
		if bounded {
			ns, _ = Insert(ns, nb, k)
		} else {
			ns = append(ns, nb)
		}
	}
	if !bounded {
		slices.SortFunc(ns, func(a, b Neighbor) int {
			switch {
			case a.ranksBefore(b):
				return -1
			case b.ranksBefore(a):
				return 1
			}
			return 0
		})
	}
	return ns
}

// Base is a table's raw tokenization (no Canon) frozen for sharing:
// every row's id set under one vocabulary. Indexes bound to it share
// both and never write them, so any number of sessions over tables of
// the same content may bind one Base concurrently.
type Base struct {
	skipCol int
	vocab   *stringsim.Vocab
	rows    [][]int32
}

// NewBase tokenizes every row of t, excluding skipCol, as NewIndex does.
func NewBase(t *dataset.Table, skipCol int) *Base {
	ix := NewIndex(t, skipCol)
	return &Base{skipCol: skipCol, vocab: ix.vocab, rows: ix.rows}
}

// Bind returns an index over t, whose content must equal the table the
// Base was built from, that tokenizes through canon. It starts from the
// Base's raw sets: the caller must ResetRows every row whose text canon
// changes. Tokens the Base's vocabulary lacks get ids in the index's own
// extension of it.
func (b *Base) Bind(t *dataset.Table, canon Canon) *Index {
	return &Index{
		table:    t,
		skipCol:  b.skipCol,
		canon:    canon,
		vocab:    b.vocab.Extend(),
		rows:     slices.Clone(b.rows),
		postOnce: new(sync.Once),
	}
}

// Bytes approximates the Base's heap footprint: the id sets, and per
// token its text, a string header and a map entry.
func (b *Base) Bytes() int64 {
	const sliceHdr, strHdr, mapEntry = 24, 16, 48
	n := int64(len(b.rows)) * sliceHdr
	for _, set := range b.rows {
		n += 4 * int64(len(set))
	}
	for id := 0; id < b.vocab.Len(); id++ {
		n += int64(len(b.vocab.Token(int32(id)))) + strHdr + mapEntry
	}
	return n
}
