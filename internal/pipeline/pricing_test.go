package pipeline_test

import (
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/experiments"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// TestIncrementalPricingBitIdentical prices every hypothesis of the
// first three iterations' ERGs both incrementally and via full rebuild,
// and requires identical bits wherever the pricer accepts — plus that it
// accepts the overwhelming majority (the fast path must actually be the
// common path for the optimization to mean anything) and that every
// case prices an in-cluster cannot-link by replaying its cluster alone.
// The workloads cover every column-granular delta shape: GROUP and BIN
// axes, WHERE predicates over A-columns and numeric columns, all three
// datasets, and the multi-view dashboard priced as its per-view sum.
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
	}{
		// The Q1 rows keep the names they had when Q1 was the only case.
		{"seed7", datagen.D1, 0.004, 7, []string{task("Q1")}},
		{"seed13", datagen.D1, 0.004, 13, []string{task("Q1")}},
		{"D1-Q7", datagen.D1, 0.01, 7, []string{task("Q7")}},
		{"D2-Q11", datagen.D2, 0.01, 7, []string{task("Q11")}},
		{"D3-Q15", datagen.D3, 0.01, 7, []string{task("Q15")}},
		{"D1-dashboard", datagen.D1, 0.01, 7, experiments.MultiViewViews()},
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
			s, err := pipeline.NewSession(d.Dirty, qs[0], d.KeyColumns, pipeline.Config{
				Seed: tc.seed, Workers: 1, Queries: qs[1:],
			})
			if err != nil {
				t.Fatal(err)
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
				t.Fatal("delta pricer accepted no hypotheses")
			}
			if counts.Declined > counts.Priced/10 {
				t.Errorf("delta pricer declined %d of %d hypotheses; fast path is not the common path",
					counts.Declined, counts.Priced+counts.Declined)
			}
			if counts.SplitInside() == 0 {
				t.Error("no in-cluster cannot-link was priced by replaying its cluster")
			}
			t.Log(counts)
		})
	}
}
