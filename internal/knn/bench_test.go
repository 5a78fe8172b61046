package knn

import (
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
)

// benchScale is the analyst-d1 workload's D1 scale (3,557 rows at
// seed 1).
const benchScale = 0.07

// Sinks keep the compiler from dropping the measured calls.
var (
	indexSink     *Index
	neighborsSink []Neighbor
)

func benchTable(b *testing.B) (*dataset.Table, int) {
	b.Helper()
	d := datagen.D1(datagen.Config{Scale: benchScale, Seed: 1})
	return d.Dirty, d.Dirty.ColumnIndex("Citations")
}

// BenchmarkNewIndex tokenizes every row of the table: the cold half of
// a session's first detect (and of the knn artifact build).
func BenchmarkNewIndex(b *testing.B) {
	tbl, y := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewIndex(tbl, y)
	}
}

// BenchmarkNearest is one imputer search (k = 5 over the rows with a
// measure value), cycling through the probe rows a detect phase uses:
// the rows with a missing measure.
func BenchmarkNearest(b *testing.B) {
	tbl, y := benchTable(b)
	ix := NewIndex(tbl, y)
	accept := func(i int) bool {
		_, ok := tbl.Get(i, y).Float()
		return ok
	}
	var probes []int
	for i := 0; i < tbl.NumRows(); i++ {
		if !accept(i) {
			probes = append(probes, i)
		}
	}
	if len(probes) == 0 {
		b.Fatal("no row lacks a measure value")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neighborsSink = ix.Nearest(probes[i%len(probes)], 5, accept)
	}
}
