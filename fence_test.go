package visclean

import (
	"math"
	"testing"
)

// TestFences pins the deterministic values the benchmarks in
// bench_test.go and bench_table_test.go produce, measured on the same
// setup. Each value reproduces a result of the paper or counts the
// work of the mechanism a benchmark times, so it moves only when
// behaviour does. Values compare exactly, float bits included; an
// allocation count is an upper bound. Wall time is compared in one
// place, `bench/run.sh compare`, against the parent commit on the same
// machine. A change that moves a fence on purpose updates its value
// here and records old → new in CHANGES.md.
func TestFences(t *testing.T) {
	for _, f := range []struct {
		name    string
		values  []string // the names of what measure returns, in order
		want    []float64
		atMost  bool // want bounds each value from above
		measure func(testing.TB) []float64
	}{
		{
			// The paper's running example: Q1's distance to the clean
			// chart before and after GSS cleaning.
			name:   "Fig10_ProgressQ1",
			values: []string{"dist0", "distN"},
			want: []float64{
				math.Float64frombits(0x3fd2a1511347f7c0), // 0.2910959900181034
				math.Float64frombits(0x3fb8694e578a881a), // 0.09535684239611478
			},
			measure: func(tb testing.TB) []float64 {
				dist0, distN := progress(tb, "Q1")
				return []float64{dist0, distN}
			},
		},
		{
			// Answers to convergence on the three-view D1 dashboard:
			// one composite session against one session per view.
			name:   "MultiView",
			values: []string{"multi_answers", "seq_answers"},
			want:   []float64{131, 239},
			measure: func(tb testing.TB) []float64 {
				multi, seq := multiViewAnswers(tb)
				return []float64{float64(multi), float64(seq)}
			},
		},
		{
			// Unique hypotheses the first ERG prices: what the memo
			// and the delta pricer leave to price.
			name:   "Annotate/Workers1",
			values: []string{"evals"},
			want:   []float64{211},
			measure: func(tb testing.TB) []float64 {
				s, _ := fig10Session(tb, 1)
				_, evals, err := s.BuildAnnotatedERG(1)
				if err != nil {
					tb.Fatal(err)
				}
				return []float64{float64(evals)}
			},
		},
		{
			// Neighbour lists the maintained detector serves from its
			// cache, and recomputes, over the four phase iterations.
			name:   "IterationPhases/Incremental",
			values: []string{"accepts", "fallbacks"},
			want:   []float64{79, 41},
			measure: func(tb testing.TB) []float64 {
				s, user := fig10Session(tb, 1)
				p := runPhases(tb, s, user)
				return []float64{float64(p.accepts), float64(p.fallbacks)}
			},
		},
		{
			// Copying a numeric column with nulls grows two slices.
			name:   "TableOps/NumericColumn",
			values: []string{"allocs"},
			want:   []float64{28},
			atMost: true,
			measure: func(tb testing.TB) []float64 {
				tbl := tableOpsTable(tb)
				cit := tbl.ColumnIndex("Citations")
				return []float64{testing.AllocsPerRun(100, func() { tbl.NumericColumn(cit) })}
			},
		},
	} {
		t.Run(f.name, func(t *testing.T) {
			if !f.atMost {
				// An allocation count is process-wide, so only the
				// exact fences run alongside each other.
				t.Parallel()
			}
			got := f.measure(t)
			for i, v := range f.values {
				switch {
				case f.atMost && got[i] > f.want[i]:
					t.Errorf("fence %s %s = %v, want at most %v", f.name, v, got[i], f.want[i])
				case !f.atMost && math.Float64bits(got[i]) != math.Float64bits(f.want[i]):
					t.Errorf("fence %s %s = %v (bits %#016x), want %v (bits %#016x)",
						f.name, v, got[i], math.Float64bits(got[i]), f.want[i], math.Float64bits(f.want[i]))
				}
			}
		})
	}
}
