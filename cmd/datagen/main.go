// Command datagen emits the paper's synthetic evaluation datasets (D1 DB
// Papers, D2 NBA Players, D3 Books — Table IV) as CSV files: the dirty
// table, the clean consolidated table, and a summary of the error rates.
//
// Usage:
//
//	datagen -dataset D1 -scale 0.05 -seed 1 -out ./data
//
// -scale multiplies the paper's entity counts and goes far past them:
// -scale 100 generates ≈5.05M D1 tuples in ~30s on the columnar engine
// (DESIGN.md §11); the at-scale pipeline harness behind VISCLEAN_SCALE
// (internal/pipeline/scale_test.go) consumes the same generator.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"visclean/internal/datagen"
)

func main() {
	name := flag.String("dataset", "D1", "dataset to generate: D1, D2, D3 or all")
	scale := flag.Float64("scale", 0.05, "entity-count scale factor (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", ".", "output directory")
	flag.Parse()

	// Checked before the loop, so the error is not worded as a name's.
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "datagen: -scale %g is not > 0\n", *scale)
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = []string{"D1", "D2", "D3"}
	}
	for _, n := range names {
		if err := emit(n, *scale, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
	}
}

func emit(name string, scale float64, seed int64, out string) error {
	d, err := datagen.ByName(name, datagen.Config{Scale: scale, Seed: seed})
	if err != nil {
		return fmt.Errorf("%w, or all", err)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dirtyPath := filepath.Join(out, name+"_dirty.csv")
	cleanPath := filepath.Join(out, name+"_clean.csv")
	if err := d.Dirty.SaveCSVFile(dirtyPath); err != nil {
		return err
	}
	if err := d.Truth.Clean.SaveCSVFile(cleanPath); err != nil {
		return err
	}
	s := d.Stats()
	fmt.Printf("%s: %d tuples (%d distinct entities), %d attributes → %s\n",
		name, s.Tuples, s.DistinctTuples, s.Attributes, dirtyPath)
	fmt.Printf("%s: missing %.1f%%, outliers %.1f%% on %v; clean table → %s\n",
		name, s.MissingRate*100, s.OutlierRate*100, d.MeasureColumns, cleanPath)
	return nil
}
