// Package em implements the entity-matching subsystem of §IV (Q_T):
// per-attribute similarity features over tuple pairs, token blocking to
// keep candidate generation sub-quadratic, a random-forest match
// probability model, and constraint-aware clustering of matches. The
// active-learning question generator (uncertain pairs near probability
// 0.5) ranks the session's dense probabilities in internal/pipeline.
package em

import (
	"math"
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/par"
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
	return fe.FeaturesOf(t, []Pair{{A: a, B: b}}, 1)[0]
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
// It runs in three passes. The first, sequential, numbers the distinct
// values and the distinct ordered value pairs in first-seen order. The
// second scores each value pair, and the third fills each vector; both
// fan out over at most workers goroutines (see fanOut), so every worker
// count gives the same bits.
//
// The vectors share one backing array. Each is a full-capacity slice,
// so appending to one copies it instead of overwriting its neighbour.
func (fe *FeatureExtractor) FeaturesOf(t *dataset.Table, pairs []Pair, workers int) [][]float64 {
	b := newValueBatch(fe.schema, t, pairs)
	sims := make([][3]float64, len(b.vpairs))
	fanOut(workers, len(sims), func(k int) {
		x, y := b.vpairs[k][0], b.vpairs[k][1]
		sims[k] = [3]float64{
			stringsim.JaccardIDs(b.toks[x], b.toks[y]),
			stringsim.JaroWinklerRunes(b.runes[x], b.runes[y]),
			0,
		}
		if x == y {
			sims[k][2] = 1
		}
	})

	w := fe.Width()
	back := make([]float64, len(pairs)*w)
	out := make([][]float64, len(pairs))
	nStr := len(b.strCols)
	fanOut(workers, len(pairs), func(i int) {
		f := back[i*w : (i+1)*w : (i+1)*w]
		out[i] = f
		ia, okA := t.RowIndex(pairs[i].A)
		ib, okB := t.RowIndex(pairs[i].B)
		if !okA || !okB {
			// An id past the table names no tuple and matches nothing;
			// the zero vector is the most dissimilar one, so a bad pair
			// degrades gracefully instead of panicking.
			return
		}
		slots := b.slots[i*nStr : (i+1)*nStr]
		k, j := 0, 0
		for c, col := range fe.schema {
			if col.Kind == dataset.String {
				if s := slots[j]; s < 0 {
					f[k], f[k+1], f[k+2] = 0.5, 0.5, 0.5
				} else {
					f[k], f[k+1], f[k+2] = sims[s][0], sims[s][1], sims[s][2]
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
	})
	return out
}

// valueBatch is FeaturesOf's sequential first pass over a batch: an id
// per distinct string value with its prepared forms, and an index per
// distinct ordered value-id pair that some pair of the batch compares.
type valueBatch struct {
	strCols []int   // the schema's String columns, in order
	slots   []int32 // per pair and strCols entry: the value pair's index in vpairs; -1 when either cell is null
	vpairs  [][2]int32
	runes   [][]rune  // by value id: stringsim.LowerRunes
	toks    [][]int32 // by value id: token ids in vocab
}

func newValueBatch(schema dataset.Schema, t *dataset.Table, pairs []Pair) *valueBatch {
	b := &valueBatch{}
	for c, col := range schema {
		if col.Kind == dataset.String {
			b.strCols = append(b.strCols, c)
		}
	}
	nStr := len(b.strCols)
	b.slots = make([]int32, len(pairs)*nStr)
	// rowOff[i] is the offset of row i's value ids in rowIDs, -1 until
	// the row is first resolved.
	rowOff := make([]int32, t.NumRows())
	for i := range rowOff {
		rowOff[i] = -1
	}
	var rowIDs []int32 // per resolved row, one id per strCols entry; -1 is null
	ids := make(map[string]int32)
	vocab := stringsim.NewVocab()
	row := func(i int) []int32 {
		if rowOff[i] < 0 {
			rowOff[i] = int32(len(rowIDs))
			for _, c := range b.strCols {
				id := int32(-1)
				if s, ok := t.Get(i, c).Text(); ok {
					var seen bool
					if id, seen = ids[s]; !seen {
						id = int32(len(b.runes))
						ids[s] = id
						b.runes = append(b.runes, stringsim.LowerRunes(s))
						b.toks = append(b.toks, vocab.TokenIDs(s))
					}
				}
				rowIDs = append(rowIDs, id)
			}
		}
		return rowIDs[rowOff[i] : int(rowOff[i])+nStr]
	}
	vslot := make(map[uint64]int32)
	for i, p := range pairs {
		ia, okA := t.RowIndex(p.A)
		ib, okB := t.RowIndex(p.B)
		if !okA || !okB {
			continue // FeaturesOf leaves the vector zero
		}
		va, vb := row(ia), row(ib)
		slots := b.slots[i*nStr : (i+1)*nStr]
		for j := range slots {
			x, y := va[j], vb[j]
			if x < 0 || y < 0 {
				slots[j] = -1
				continue
			}
			key := uint64(uint32(x))<<32 | uint64(uint32(y))
			s, ok := vslot[key]
			if !ok {
				s = int32(len(b.vpairs))
				vslot[key] = s
				b.vpairs = append(b.vpairs, [2]int32{x, y})
			}
			slots[j] = s
		}
	}
	return b
}

// fanBlock is how many consecutive items fanOut hands a worker at once.
// Scoring one pair takes tens of nanoseconds, about what a contended
// hand-off of one index costs, so per-item hand-off made two workers
// slower than one.
const fanBlock = 256

// fanOut runs fn(i) for every i in [0, n) across at most workers
// goroutines (workers < 1 selects GOMAXPROCS), in blocks of fanBlock
// consecutive items; n ≤ fanBlock runs on the caller's goroutine. fn
// must follow par's index-write rule: item i writes only slot i.
func fanOut(workers, n int, fn func(i int)) {
	blocks := (n + fanBlock - 1) / fanBlock
	par.ForEachIndex(workers, blocks, func(b int) {
		for i := b * fanBlock; i < min(n, (b+1)*fanBlock); i++ {
			fn(i)
		}
	})
}
