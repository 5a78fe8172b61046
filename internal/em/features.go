// Package em implements the entity-matching subsystem of §IV (Q_T):
// per-attribute similarity features over tuple pairs, token blocking to
// keep candidate generation sub-quadratic, a random-forest match
// probability model, active-learning question generation (uncertain pairs
// near probability 0.5), and constraint-aware clustering of matches.
package em

import (
	"math"
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// FeatureExtractor turns a tuple pair into a fixed-width feature vector.
// String columns contribute token Jaccard, Jaro-Winkler and an exact-match
// flag; numeric columns contribute a dispersion-scaled similarity
// exp(−|a−b| / MAD) plus an agreement flag, where MAD is the column's
// median absolute deviation. MAD is the right scale: a range-normalized
// difference is useless on heavy-tailed columns (outliers stretch the
// range until every pair looks similar) and a relative difference is
// useless on offset-dominated columns like years (every pair looks
// identical). Null cells yield neutral 0.5 features so missing values
// neither force nor forbid a match.
type FeatureExtractor struct {
	schema dataset.Schema
	scale  []float64 // per column: MAD for Float columns (>= 1), else 0
}

// NewFeatureExtractor scans the table once to learn per-column scales.
func NewFeatureExtractor(t *dataset.Table) *FeatureExtractor {
	fe := &FeatureExtractor{schema: t.Schema()}
	fe.scale = make([]float64, t.NumCols())
	for c := 0; c < t.NumCols(); c++ {
		if fe.schema[c].Kind != dataset.Float {
			continue
		}
		fe.scale[c] = madOf(t, c)
	}
	return fe
}

// madOf computes the median absolute deviation of a Float column,
// clamped to at least 1 so degenerate columns don't divide by zero.
func madOf(t *dataset.Table, c int) float64 {
	vals, _ := t.NumericColumn(c)
	if len(vals) == 0 {
		return 1
	}
	med := medianFloat(vals)
	devs := make([]float64, len(vals))
	for i, v := range vals {
		d := v - med
		if d < 0 {
			d = -d
		}
		devs[i] = d
	}
	mad := medianFloat(devs)
	if mad < 1 {
		mad = 1
	}
	return mad
}

func medianFloat(vals []float64) float64 {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// Width reports the feature vector length.
func (fe *FeatureExtractor) Width() int {
	w := 0
	for _, c := range fe.schema {
		if c.Kind == dataset.String {
			w += 3
		} else {
			w += 2
		}
	}
	return w
}

// Features computes the feature vector of tuple pair (a, b) of t, which
// must have the extractor's schema: FeaturesOf's one-pair case.
func (fe *FeatureExtractor) Features(t *dataset.Table, a, b dataset.TupleID) []float64 {
	return fe.FeaturesOf(t, []Pair{{A: a, B: b}})[0]
}

// FeaturesOf computes the feature vectors of a batch of tuple pairs of
// t, aligned with pairs; each pair is taken in its (A, B) order. Work is
// shared across the batch, so its cost grows with the batch, not the
// table: each distinct string value is prepared once (lower-cased runes
// for Jaro-Winkler, a sorted token-id set for Jaccard), and each string
// column's (Jaccard, Jaro-Winkler, exact) triple is computed once per
// distinct ordered value pair. The result is bit-identical to scoring
// every pair on its own strings: equal token sets give equal
// intersection and union counts, equal lowered runes run the same Jaro
// arithmetic, and exact is equality of value ids, which are assigned
// one per distinct string.
//
// The vectors share one backing array. Each is a full-capacity slice,
// so appending to one copies it instead of overwriting its neighbour.
func (fe *FeatureExtractor) FeaturesOf(t *dataset.Table, pairs []Pair) [][]float64 {
	w := fe.Width()
	back := make([]float64, len(pairs)*w)
	out := make([][]float64, len(pairs))
	vals := newValueBatch(fe.schema)
	for i, p := range pairs {
		f := back[i*w : (i+1)*w : (i+1)*w]
		out[i] = f
		ia, okA := t.RowIndex(p.A)
		ib, okB := t.RowIndex(p.B)
		if !okA || !okB {
			// A vanished tuple (merged away) matches nothing; the zero
			// vector is the most dissimilar one, so stale questions
			// degrade gracefully instead of panicking.
			continue
		}
		va, vb := vals.row(t, ia), vals.row(t, ib)
		k, j := 0, 0
		for c, col := range fe.schema {
			if col.Kind == dataset.String {
				if x, y := va[j], vb[j]; x < 0 || y < 0 {
					f[k], f[k+1], f[k+2] = 0.5, 0.5, 0.5
				} else {
					sim := vals.sim(x, y)
					f[k], f[k+1], f[k+2] = sim[0], sim[1], sim[2]
				}
				j++
				k += 3
				continue
			}
			fa, okFA := t.Get(ia, c).Float()
			fb, okFB := t.Get(ib, c).Float()
			if !okFA || !okFB {
				f[k], f[k+1] = 0.5, 0.5
			} else {
				diff := fa - fb
				if diff < 0 {
					diff = -diff
				}
				f[k] = math.Exp(-diff / fe.scale[c])
				if fa == fb {
					f[k+1] = 1
				}
			}
			k += 2
		}
	}
	return out
}

// valueBatch holds one FeaturesOf call's shared string work: an id per
// distinct string value, each value's prepared forms, each row's value
// ids, and the similarity triple of every ordered value-id pair scored
// so far.
type valueBatch struct {
	strCols []int         // the schema's String columns, in order
	rowOff  map[int]int32 // row index → offset of its value ids in rowIDs
	rowIDs  []int32       // per resolved row, one id per strCols entry; -1 is null
	ids     map[string]int32
	runes   [][]rune  // by value id: stringsim.LowerRunes
	toks    [][]int32 // by value id: token ids in vocab
	vocab   *stringsim.Vocab
	sims    map[uint64][3]float64 // ordered id pair → (Jaccard, Jaro-Winkler, exact)
}

func newValueBatch(schema dataset.Schema) *valueBatch {
	b := &valueBatch{
		rowOff: make(map[int]int32),
		ids:    make(map[string]int32),
		vocab:  stringsim.NewVocab(),
		sims:   make(map[uint64][3]float64),
	}
	for c, col := range schema {
		if col.Kind == dataset.String {
			b.strCols = append(b.strCols, c)
		}
	}
	return b
}

// row returns the value ids of row i's string cells.
func (b *valueBatch) row(t *dataset.Table, i int) []int32 {
	off, ok := b.rowOff[i]
	if !ok {
		off = int32(len(b.rowIDs))
		b.rowOff[i] = off
		for _, c := range b.strCols {
			id := int32(-1)
			if s, ok := t.Get(i, c).Text(); ok {
				id = b.id(s)
			}
			b.rowIDs = append(b.rowIDs, id)
		}
	}
	return b.rowIDs[off : int(off)+len(b.strCols)]
}

// id returns s's value id, preparing s on first sight.
func (b *valueBatch) id(s string) int32 {
	if id, ok := b.ids[s]; ok {
		return id
	}
	id := int32(len(b.runes))
	b.ids[s] = id
	b.runes = append(b.runes, stringsim.LowerRunes(s))
	b.toks = append(b.toks, b.vocab.TokenIDs(s))
	return id
}

// sim returns the (Jaccard, Jaro-Winkler, exact) triple of values x, y.
func (b *valueBatch) sim(x, y int32) [3]float64 {
	key := uint64(uint32(x))<<32 | uint64(uint32(y))
	if s, ok := b.sims[key]; ok {
		return s
	}
	s := [3]float64{
		stringsim.JaccardIDs(b.toks[x], b.toks[y]),
		stringsim.JaroWinklerRunes(b.runes[x], b.runes[y]),
		0,
	}
	if x == y {
		s[2] = 1
	}
	b.sims[key] = s
	return s
}
