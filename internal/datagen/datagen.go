// Package datagen synthesizes the paper's three evaluation datasets
// (Table IV) with recorded ground truth, substituting for the crawled
// corpora and crowdsourced labels the authors used (see DESIGN.md §1):
//
//	D1 DB Papers   — 13,915 entities / 50,483 tuples, 6 attributes,
//	                 15.1% missing, 1.1% outliers
//	D2 NBA Players —  4,644 entities / 13,486 tuples, 17 attributes,
//	                  8.2% missing, 1.3% outliers
//	D3 Books       —  3,702 entities /  7,676 tuples, 17 attributes,
//	                  9.2% missing, 2.1% outliers
//
// Each generator first creates clean entities, then duplicates them
// across simulated sources with attribute-value variants (tuple- and
// attribute-level duplicates), then corrupts measure cells (missing
// values and outliers), recording everything it did in the ground truth.
// A Scale factor shrinks entity counts proportionally for fast runs.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/oracle"
)

// Config controls generation.
type Config struct {
	// Scale multiplies the paper's entity counts; 1.0 reproduces
	// Table IV sizes. Values below ~0.005 clamp to a small floor so the
	// pipeline still has structure to clean.
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// Dataset bundles a dirty table with its ground truth and the metadata
// the pipeline needs.
type Dataset struct {
	Name  string
	Dirty *dataset.Table
	Truth *oracle.GroundTruth
	// KeyColumns are the blocking-key column indices for entity matching.
	KeyColumns []int
	// MeasureColumns are the numeric columns that carry injected errors.
	MeasureColumns []string
}

// ByName generates the dataset named "D1", "D2" or "D3". A scale that
// is not > 0 (NaN included) is an error: the generators themselves read
// it as the paper's full size.
func ByName(name string, cfg Config) (*Dataset, error) {
	if !(cfg.Scale > 0) {
		return nil, fmt.Errorf("scale %g is not > 0", cfg.Scale)
	}
	switch name {
	case "D1":
		return D1(cfg), nil
	case "D2":
		return D2(cfg), nil
	case "D3":
		return D3(cfg), nil
	}
	return nil, fmt.Errorf("unknown dataset %q: want D1, D2 or D3", name)
}

// Stats summarizes a generated dataset for Table IV verification.
type Stats struct {
	Attributes     int
	Tuples         int
	DistinctTuples int
	MissingRate    float64 // over measure columns
	OutlierRate    float64 // over measure columns
}

// Stats computes the Table IV row for this dataset.
func (d *Dataset) Stats() Stats {
	s := Stats{
		Attributes: d.Dirty.NumCols(),
		Tuples:     d.Dirty.NumRows(),
	}
	ents := map[int]struct{}{}
	for _, e := range d.Truth.Entity {
		ents[e] = struct{}{}
	}
	s.DistinctTuples = len(ents)

	cells, missing, outliers := 0, 0, 0
	for _, colName := range d.MeasureColumns {
		c := d.Dirty.ColumnIndex(colName)
		if c < 0 {
			continue
		}
		for i := 0; i < d.Dirty.NumRows(); i++ {
			cells++
			v := d.Dirty.Get(i, c)
			if v.IsNull() {
				missing++
				continue
			}
			f, _ := v.Float()
			if truth, ok := d.Truth.TrueValue(colName, d.Dirty.ID(i)); ok && truth != f {
				// Source noise is not an outlier; count only gross errors.
				if math.Abs(f-truth) > 0.5*math.Abs(truth)+1e-9 {
					outliers++
				}
			}
		}
	}
	if cells > 0 {
		s.MissingRate = float64(missing) / float64(cells)
		s.OutlierRate = float64(outliers) / float64(cells)
	}
	return s
}

// gen carries shared generator state.
type gen struct {
	rng   *rand.Rand
	truth *oracle.GroundTruth
}

func newGen(seed int64) *gen {
	return &gen{
		rng: rand.New(rand.NewSource(seed)),
		truth: &oracle.GroundTruth{
			Entity:    map[dataset.TupleID]int{},
			Canonical: map[string]map[string]string{},
			TrueY:     map[string]map[dataset.TupleID]float64{},
		},
	}
}

// registerCanonical records variant → canonical for a column.
func (g *gen) registerCanonical(column, variant, canonical string) {
	m := g.truth.Canonical[column]
	if m == nil {
		m = map[string]string{}
		g.truth.Canonical[column] = m
	}
	m[variant] = canonical
}

// registerPool registers a whole synonym pool for a column.
func (g *gen) registerPool(column string, pool map[string][]string) {
	for canon, variants := range pool {
		g.registerCanonical(column, canon, canon)
		for _, v := range variants {
			g.registerCanonical(column, v, canon)
		}
	}
}

// variantOf picks the canonical value or one of its variants.
// pVariant is the probability a non-canonical spelling is used.
func (g *gen) variantOf(canonical string, pool map[string][]string, pVariant float64) string {
	variants := pool[canonical]
	if len(variants) == 0 || g.rng.Float64() >= pVariant {
		return canonical
	}
	return variants[g.rng.Intn(len(variants))]
}

// pickWeighted draws a key from a weight map, deterministically ordered.
func (g *gen) pickWeighted(weights map[string]float64) string {
	keys := make([]string, 0, len(weights))
	total := 0.0
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total += weights[k]
	}
	r := g.rng.Float64() * total
	for _, k := range keys {
		r -= weights[k]
		if r <= 0 {
			return k
		}
	}
	return keys[len(keys)-1]
}

// pickKey draws a uniform key from a pool map, deterministically.
func (g *gen) pickKey(pool map[string][]string) string {
	keys := make([]string, 0, len(pool))
	for k := range pool {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[g.rng.Intn(len(keys))]
}

// binomial samples Binomial(n, p).
func (g *gen) binomial(n int, p float64) int {
	c := 0
	for i := 0; i < n; i++ {
		if g.rng.Float64() < p {
			c++
		}
	}
	return c
}

// corruptMeasure applies the paper's error model to a measure cell:
// with pMissing the value disappears; else with pOutlier it becomes a
// gross error (decimal shift or large additive offset). The true value
// is recorded beforehand by the caller.
func (g *gen) corruptMeasure(v float64, pMissing, pOutlier float64) (dataset.Value, bool, bool) {
	r := g.rng.Float64()
	if r < pMissing {
		return dataset.Null(dataset.Float), true, false
	}
	if r < pMissing+pOutlier {
		switch g.rng.Intn(3) {
		case 0:
			v *= 10 // decimal shift, the paper's 174 → 1740
		case 1:
			v /= 10
		default:
			v += 500 + 500*g.rng.Float64()
		}
		return dataset.Num(round1(v)), false, true
	}
	return dataset.Num(round1(v)), false, false
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }

// scaledCount applies the scale factor with a floor.
func scaledCount(base int, scale float64, floor int) int {
	if scale <= 0 {
		scale = 1
	}
	n := int(math.Round(float64(base) * scale))
	if n < floor {
		n = floor
	}
	return n
}

// synthName builds a pronounceable unique-ish name from the rng, used
// for system names and surnames so blocking keys have a realistic
// frequency distribution.
func (g *gen) synthName(syllables int) string {
	consonants := []string{"b", "d", "f", "g", "k", "l", "m", "n", "r", "s", "t", "v", "z", "ch", "sh"}
	vowels := []string{"a", "e", "i", "o", "u"}
	out := ""
	for i := 0; i < syllables; i++ {
		out += consonants[g.rng.Intn(len(consonants))] + vowels[g.rng.Intn(len(vowels))]
	}
	return string(out[0]-'a'+'A') + out[1:]
}

// entityValue records the true Y value of a dirty tuple.
func (g *gen) recordTrueY(column string, id dataset.TupleID, v float64) {
	m := g.truth.TrueY[column]
	if m == nil {
		m = map[dataset.TupleID]float64{}
		g.truth.TrueY[column] = m
	}
	m[id] = v
}

// sourceNoise returns v with small cross-source variance on a minority
// of copies (the paper's 42-vs-44 Elaps citations).
func (g *gen) sourceNoise(v float64) float64 {
	if g.rng.Float64() < 0.2 {
		return v * (1 + 0.05*(2*g.rng.Float64()-1))
	}
	return v
}

func fmtYearVariant(g *gen, canon string, year int) string {
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("%s'%02d", canon, year%100)
	case 1:
		return fmt.Sprintf("%s %d", canon, year)
	default:
		return fmt.Sprintf("%s %d Conf.", canon, year)
	}
}
