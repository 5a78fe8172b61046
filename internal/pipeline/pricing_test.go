package pipeline_test

import (
	"math"
	"testing"

	"visclean/internal/artifact"
	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/experiments"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// TestIncrementalPricingBitIdentical prices every hypothesis of the
// first three iterations' ERGs both incrementally and via the test-only
// full rebuild, and requires identical bits for every one — plus that
// every case prices an in-cluster cannot-link by replaying its cluster
// alone.
// The workloads cover every column-granular delta shape: GROUP and BIN
// axes, WHERE predicates over A-columns and numeric columns, all three
// datasets, and the multi-view dashboard priced as its per-view sum.
// The warm cases open on an artifact cache that a first session has
// already filled, so their first iteration prices through the shared
// pristine executors: the dashboard's three GROUP and BIN views, and a
// single view's.
// The log line gives the counts per pricer path.
func TestIncrementalPricingBitIdentical(t *testing.T) {
	task := func(id string) string {
		tk, err := experiments.TaskByID(id)
		if err != nil {
			t.Fatal(err)
		}
		return tk.VQL
	}
	cases := []struct {
		name    string
		gen     func(datagen.Config) *datagen.Dataset
		scale   float64
		seed    int64
		queries []string
		warm    bool
	}{
		// The Q1 rows keep the names they had when Q1 was the only case.
		{"seed7", datagen.D1, 0.004, 7, []string{task("Q1")}, false},
		{"seed13", datagen.D1, 0.004, 13, []string{task("Q1")}, false},
		{"D1-Q7", datagen.D1, 0.01, 7, []string{task("Q7")}, false},
		{"D2-Q11", datagen.D2, 0.01, 7, []string{task("Q11")}, false},
		{"D3-Q15", datagen.D3, 0.01, 7, []string{task("Q15")}, false},
		{"D1-dashboard", datagen.D1, 0.01, 7, experiments.MultiViewViews(), false},
		{"D1-dashboard-warm", datagen.D1, 0.01, 7, experiments.MultiViewViews(), true},
		{"seed7-warm", datagen.D1, 0.004, 7, []string{task("Q1")}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d := tc.gen(datagen.Config{Scale: tc.scale, Seed: tc.seed})
			var qs []*vql.Query
			for _, src := range tc.queries {
				qs = append(qs, vql.MustParse(src))
			}
			cfg := pipeline.Config{Seed: tc.seed, Workers: 1, Queries: qs[1:]}
			open := func() *pipeline.Session {
				s, err := pipeline.NewSession(d.Dirty, qs[0], d.KeyColumns, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.CurrentVisAll(); err != nil {
					t.Fatal(err)
				}
				return s
			}
			var filled int
			if tc.warm {
				cfg.Artifacts = artifact.New(0)
				open().Close()
				filled = cfg.Artifacts.Stats().Entries
			}
			s := open()
			defer s.Close()
			if tc.warm {
				if n := cfg.Artifacts.Stats().Entries; n != filled {
					t.Fatalf("setup: opening on the warm cache added %d artifacts", n-filled)
				}
			}
			user := oracle.New(d.Truth, tc.seed)
			var counts pipeline.PriceCounts
			for iter := 0; iter < 3; iter++ {
				c, err := pipeline.PriceEveryHypothesis(s)
				if err != nil {
					t.Fatalf("iteration %d: %v", iter, err)
				}
				counts.Add(c)
				rep, err := s.RunIteration(user)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Exhausted {
					break
				}
			}
			if counts.Priced == 0 {
				t.Fatal("no hypotheses priced")
			}
			if counts.SplitInside() == 0 {
				t.Error("no in-cluster cannot-link was priced by replaying its cluster")
			}
			t.Log(counts)
		})
	}
}

// TestNaNMeasurePricing gives one Venue of D1 two tuples measuring +Inf
// and −Inf, as a loaded CSV can, so that venue's SUM is a NaN mark: the
// last mark of the unlimited chart, and one cut by Q1's LIMIT 10. The
// delta pricer must still price every hypothesis, and bit for bit as
// the full rebuild does, and no edge or repair benefit may be NaN: a
// mark that is not finite carries no mass.
func TestNaNMeasurePricing(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"unlimited", `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC`},
		{"Q1", `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 7})
			venue, cites := d.Dirty.ColumnIndex("Venue"), d.Dirty.ColumnIndex("Citations")
			first, _ := d.Dirty.Get(0, venue).Text()
			infs := []float64{math.Inf(1), math.Inf(-1)}
			for i := 0; i < d.Dirty.NumRows() && len(infs) > 0; i++ {
				if v, _ := d.Dirty.Get(i, venue).Text(); v != first {
					continue
				}
				if err := d.Dirty.Set(i, cites, dataset.Num(infs[0])); err != nil {
					t.Fatal(err)
				}
				infs = infs[1:]
			}
			if len(infs) > 0 {
				t.Fatalf("venue %q has one tuple", first)
			}
			s, err := pipeline.NewSession(d.Dirty, vql.MustParse(tc.src), d.KeyColumns, pipeline.Config{Seed: 7, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "unlimited" {
				chart, err := s.CurrentVis()
				if err != nil {
					t.Fatal(err)
				}
				if last := chart.Points[len(chart.Points)-1]; last.Label != first || !math.IsNaN(last.Y) {
					t.Fatalf("setup: the last mark is %+v, want %q at NaN", last, first)
				}
			}
			user := oracle.New(d.Truth, 7)
			var counts pipeline.PriceCounts
			for iter := 0; iter < 3; iter++ {
				c, err := pipeline.PriceEveryHypothesis(s)
				if err != nil {
					t.Fatalf("iteration %d: %v", iter, err)
				}
				counts.Add(c)
				g, _, err := s.BuildAnnotatedERG(1)
				if err != nil {
					t.Fatal(err)
				}
				nan, total := 0, 0
				for _, e := range g.Edges() {
					if total++; math.IsNaN(e.Benefit) {
						nan++
					}
				}
				for _, r := range g.Repairs() {
					if total++; math.IsNaN(r.Benefit) {
						nan++
					}
				}
				if nan > 0 {
					t.Errorf("iteration %d: %d of %d edge and repair benefits are NaN", iter, nan, total)
				}
				if rep, err := s.RunIteration(user); err != nil {
					t.Fatal(err)
				} else if rep.Exhausted {
					break
				}
			}
			if counts.Priced == 0 {
				t.Fatal("no hypotheses priced")
			}
			t.Log(counts)
		})
	}
}
