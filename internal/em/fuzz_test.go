package em

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"visclean/internal/dataset"
)

// fuzzFeatureTable builds a table from the fuzz input: one row per line
// of spec (at most 12), cells "name|venue|score" where "~" is a null
// string and a score that does not parse is a null number ("NaN" parses
// and dataset.Num stores it as null; "-0", "+Inf" and "-Inf" stay).
func fuzzFeatureTable(spec string) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Name", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
		{Name: "Score", Kind: dataset.Float},
	})
	lines := strings.Split(spec, "\n")
	if len(lines) > 12 {
		lines = lines[:12]
	}
	for _, line := range lines {
		cells := strings.SplitN(line, "|", 3)
		for len(cells) < 3 {
			cells = append(cells, "")
		}
		row := make([]dataset.Value, 3)
		for c := 0; c < 2; c++ {
			row[c] = dataset.Str(cells[c])
			if cells[c] == "~" {
				row[c] = dataset.Null(dataset.String)
			}
		}
		row[2] = dataset.Null(dataset.Float)
		if f, err := strconv.ParseFloat(cells[2], 64); err == nil {
			row[2] = dataset.Num(f)
		}
		tbl.MustAppend(row)
	}
	return tbl
}

// FuzzFeaturesOf holds FeaturesOf, sequential and at 4 workers, to the
// per-pair featuresRef bit for bit on small tables with empty, null,
// duplicated, case-variant and non-ASCII strings and null, ±0 and ±Inf
// numbers. Each byte pair of pairs is one tuple pair; ids run two past
// the table, so pairs name absent tuples too. The list
// is then doubled until it spans more than one fan-out block, so the
// batch always repeats pairs and the 4-worker run splits it.
func FuzzFeaturesOf(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, pairs []byte) {
		tbl := fuzzFeatureTable(spec)
		span := tbl.NumRows() + 3
		var batch []Pair
		for i := 0; i+1 < len(pairs) && len(batch) < 64; i += 2 {
			batch = append(batch, Pair{A: dataset.TupleID(int(pairs[i]) % span), B: dataset.TupleID(int(pairs[i+1]) % span)})
		}
		for len(batch) > 0 && len(batch) <= fanBlock {
			batch = append(batch, batch...)
		}
		fe := NewFeatureExtractor(tbl)
		refs := map[Pair][]float64{}
		for _, workers := range []int{1, 4} {
			got := fe.FeaturesOf(tbl, batch, workers)
			if len(got) != len(batch) {
				t.Fatalf("workers=%d: %d vectors for %d pairs", workers, len(got), len(batch))
			}
			for i, p := range batch {
				want, ok := refs[p]
				if !ok {
					want = featuresRef(fe, tbl, p.A, p.B)
					refs[p] = want
				}
				if len(got[i]) != len(want) {
					t.Fatalf("workers=%d pair %v: %d features, reference %d", workers, p, len(got[i]), len(want))
				}
				for k := range want {
					if math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
						t.Fatalf("workers=%d pair %v feature %d = %v, reference %v", workers, p, k, got[i][k], want[k])
					}
				}
			}
		}
	})
}
