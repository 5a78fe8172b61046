package visclean

// Benchmarks for the columnar dataset engine: raw table operations
// with allocation tracking, and the Clone-vs-Overlay comparison that
// justifies the copy-on-write layer.

import (
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
)

// tableOpsTable builds the D1 dirty table at fixtureScale, the same
// fixture the annotate benches use.
func tableOpsTable(tb testing.TB) *dataset.Table {
	tb.Helper()
	return datagen.D1(datagen.Config{Scale: fixtureScale, Seed: 1}).Dirty
}

// BenchmarkTableOps measures the dataset substrate's hot operations.
// The interesting metrics are allocs/op (Scan and GetByID must be
// zero-allocation on the columnar store) and the NumericColumn /
// DistinctStrings costs, which detection pays on every full rebuild.
func BenchmarkTableOps(b *testing.B) {
	tbl := tableOpsTable(b)
	cit := tbl.ColumnIndex("Citations")
	venue := tbl.ColumnIndex("Venue")

	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0.0
		for i := 0; i < b.N; i++ {
			for r := 0; r < tbl.NumRows(); r++ {
				if f, ok := tbl.Get(r, cit).Float(); ok {
					sum += f
				}
			}
		}
		_ = sum
	})

	b.Run("GetByID", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0.0
		for i := 0; i < b.N; i++ {
			for r := 0; r < tbl.NumRows(); r++ {
				if v, ok := tbl.GetByID(tbl.ID(r), cit); ok {
					if f, ok := v.Float(); ok {
						sum += f
					}
				}
			}
		}
		_ = sum
	})

	b.Run("NumericColumn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vals, _ := tbl.NumericColumn(cit)
			if len(vals) == 0 {
				b.Fatal("empty numeric column")
			}
		}
	})

	b.Run("DistinctStrings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := tbl.DistinctStrings(venue)
			if len(m) == 0 {
				b.Fatal("no distinct venues")
			}
		}
	})

	b.Run("Append", func(b *testing.B) {
		b.ReportAllocs()
		row := tbl.Row(0)
		for i := 0; i < b.N; i++ {
			out := dataset.NewTable(tbl.Schema())
			for r := 0; r < 1000; r++ {
				out.MustAppend(row)
			}
		}
	})
}

// BenchmarkCloneVsOverlay is the tentpole's headline: hypothetical
// repairs and snapshots need a mutable view of the session table, and
// the copy-on-write Overlay must beat a deep Clone by ≥10× in both time
// and bytes. Each op performs the canonical hypothesis-pricing edit
// script: derive a view, patch 3 cells, read them back.
func BenchmarkCloneVsOverlay(b *testing.B) {
	tbl := tableOpsTable(b)
	cit := tbl.ColumnIndex("Citations")
	ids := []dataset.TupleID{tbl.ID(1), tbl.ID(tbl.NumRows() / 2), tbl.ID(tbl.NumRows() - 1)}

	b.Run("Clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := tbl.Clone()
			for _, id := range ids {
				if err := cp.SetByID(id, cit, dataset.Num(float64(i))); err != nil {
					b.Fatal(err)
				}
			}
			for _, id := range ids {
				if _, ok := cp.GetByID(id, cit); !ok {
					b.Fatal("lost cell")
				}
			}
		}
	})

	b.Run("Overlay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ov := tbl.Overlay()
			for _, id := range ids {
				if err := ov.Set(id, cit, dataset.Num(float64(i))); err != nil {
					b.Fatal(err)
				}
			}
			for _, id := range ids {
				if _, ok := ov.Patch(id, cit); !ok {
					b.Fatal("lost cell")
				}
			}
		}
	})
}
