package visclean

// One benchmark per table and figure of the paper's evaluation (§VII).
// Each drives the same harness code as cmd/experiments, at a reduced
// generator scale so `go test -bench=.` finishes in minutes; run
// `cmd/experiments -scale 0.05 all` (or larger) for the numbers recorded
// in EXPERIMENTS.md. Benchmarks report ns/op for one full experiment
// unit plus custom metrics where a figure is about a quantity other than
// time (final EMD, user seconds).

import (
	"testing"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/datagen"
	"visclean/internal/experiments"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// benchScale keeps a full -bench=. run tractable.
const benchScale = 0.01

// fixtureScale is the D1 scale (about 2.5k rows at seed 1) of the
// annotate, iteration-phase and table-ops benchmarks.
const fixtureScale = 0.05

// fig10Query is the paper's running example, Q1.
const fig10Query = `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`

func benchEnv() *experiments.Env { return experiments.NewEnv(benchScale, 1) }

// BenchmarkTableIV_Datasets regenerates the three datasets and verifies
// their Table IV statistics.
func BenchmarkTableIV_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchScale, int64(i+1))
		_ = experiments.TableIV(env)
	}
}

// BenchmarkTableV_Queries parses and executes all 18 workload queries on
// dirty and clean data.
func BenchmarkTableV_Queries(b *testing.B) {
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableV(env); err != nil {
			b.Fatal(err)
		}
	}
}

// progress runs one Exp-1 progression (Figs 10–12) and returns the
// task's distance to the clean chart before and after cleaning.
func progress(tb testing.TB, task string) (dist0, distN float64) {
	tb.Helper()
	_, curve, err := experiments.Exp1Progress(benchEnv(), task)
	if err != nil {
		tb.Fatal(err)
	}
	return curve.InitialDist, curve.FinalDist()
}

// benchProgress drives one Exp-1 progression (Figs 10–12).
func benchProgress(b *testing.B, task string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		dist0, distN := progress(b, task)
		b.ReportMetric(dist0, "dist0")
		b.ReportMetric(distN, "distN")
	}
}

// BenchmarkFig10_ProgressQ1 is the paper's running example: Q1 cleaned
// by GSS with chart snapshots at 0/5/10/15 questions.
func BenchmarkFig10_ProgressQ1(b *testing.B) { benchProgress(b, "Q1") }

// BenchmarkFig11_ProgressQ7 cleans the predicate-heavy Q7.
func BenchmarkFig11_ProgressQ7(b *testing.B) { benchProgress(b, "Q7") }

// BenchmarkFig12_ProgressQ8 cleans the pie chart Q8.
func BenchmarkFig12_ProgressQ8(b *testing.B) { benchProgress(b, "Q8") }

// BenchmarkFig13_EMDCurves runs the per-dataset EMD-vs-iteration curves.
func BenchmarkFig13_EMDCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv()
		if _, _, err := experiments.Exp1Curves(env, []string{"Q1", "Q10", "Q15"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14_SelectorEffectiveness compares GSS, GSS+, B&B, 5-B&B,
// Single and Random end to end on one task.
func BenchmarkFig14_SelectorEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv()
		_, out, err := experiments.Exp2Effectiveness(env, []string{"Q1"})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range out["Q1"] {
			if c.Selector == pipeline.SelectGSS.String() {
				b.ReportMetric(c.FinalDist(), "gss_distN")
			}
		}
	}
}

// BenchmarkFig15_16_UserTime measures the composite-vs-single user-time
// comparison; the saving fraction is reported as a custom metric.
func BenchmarkFig15_16_UserTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv()
		_, out, err := experiments.Exp2UserTime(env, []string{"Q1"})
		if err != nil {
			b.Fatal(err)
		}
		pair := out["Q1"]
		comp, single := pair[0], pair[1]
		if n, m := len(comp.UserSeconds), len(single.UserSeconds); n > 0 && m > 0 {
			cs := comp.UserSeconds[n-1]
			ss := single.UserSeconds[m-1]
			if ss > 0 {
				b.ReportMetric((1-cs/ss)*100, "saving_%")
			}
		}
	}
}

// multiViewAnswers runs the multi-view comparison (DESIGN.md §13): one
// session serving the three-view D1 dashboard versus one dedicated
// session per view. It returns answers-to-convergence of each arm, 0
// when an arm missed the budget.
func multiViewAnswers(tb testing.TB) (multi, seq int) {
	tb.Helper()
	// Seed 11: both arms converge within the default budget at this
	// scale, so the counts are real answer counts, not 0s.
	_, res, err := experiments.ExpMultiView(experiments.NewEnv(benchScale, 11), 0)
	if err != nil {
		tb.Fatal(err)
	}
	multi, _ = res.MultiTotal()
	seq, _ = res.SeqTotal()
	return multi, seq
}

// BenchmarkMultiView times the multi-view comparison. The custom
// metrics are the figure itself: answers-to-convergence of each arm.
func BenchmarkMultiView(b *testing.B) {
	for i := 0; i < b.N; i++ {
		multi, seq := multiViewAnswers(b)
		b.ReportMetric(float64(multi), "multi_answers")
		b.ReportMetric(float64(seq), "seq_answers")
	}
}

// BenchmarkTableVI_NoisyInput runs the wrong-label / completeness grid
// for one task with one repeat.
func BenchmarkTableVI_NoisyInput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv()
		if _, _, err := experiments.Exp3NoisyInput(env, []string{"Q2"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17a_SelectionVaryK times CQG selection on a synthetic ERG
// with 20,000 edges, varying k (all five algorithms).
func BenchmarkFig17a_SelectionVaryK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pts := experiments.Exp4VaryK(20000, []int{5, 10, 15, 20, 25, 30}, 200000, 1)
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig17b_SelectionVaryEdges times CQG selection at k=5 on ERGs
// from 5,000 to 40,000 edges.
func BenchmarkFig17b_SelectionVaryEdges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pts := experiments.Exp4VaryEdges(5, []int{5000, 10000, 20000, 30000, 40000}, 200000, 1)
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig18_ComponentTime measures the per-component machine time
// of a full cleaning run.
func BenchmarkFig18_ComponentTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv()
		_, out, err := experiments.Exp4ComponentTime(env, []string{"Q1"})
		if err != nil {
			b.Fatal(err)
		}
		if tm, ok := out["Q1"]; ok {
			b.ReportMetric(float64(tm.Train.Microseconds()), "train_µs")
			b.ReportMetric(float64(tm.Benefit.Microseconds()), "benefit_µs")
		}
	}
}

// fig10Session builds one session over D1 at fixtureScale under the
// Fig 10 query, and the oracle that answers its questions.
func fig10Session(tb testing.TB, workers int) (*pipeline.Session, *oracle.Oracle) {
	tb.Helper()
	d := datagen.D1(datagen.Config{Scale: fixtureScale, Seed: 1})
	s, err := pipeline.NewSession(d.Dirty, vql.MustParse(fig10Query), d.KeyColumns, pipeline.Config{Seed: 1, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return s, oracle.New(d.Truth, 1)
}

// BenchmarkAnnotate isolates the benefit-model hot path — pricing every
// edge and vertex repair of the first iteration's ERG — at worker counts
// 1 and 8, and of the third iteration's ERG at 1 (MidSession). Workers1
// and Workers8 are bit-identical (cross-checked against the Workers1
// edge benefits), so the only difference is wall-clock. evals/op
// reports unique hypotheses priced (memo cache misses).
func BenchmarkAnnotate(b *testing.B) {
	var baseline []float64 // Workers=1 edge benefits, for cross-check
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"Workers1", 1},
		{"Workers8", 8},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			s, _ := fig10Session(b, v.workers)
			workers := v.workers
			var evals int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, n, err := s.BuildAnnotatedERG(workers)
				if err != nil {
					b.Fatal(err)
				}
				evals = n
				benefits := make([]float64, g.NumEdges())
				for e := 0; e < g.NumEdges(); e++ {
					benefits[e] = g.Edge(e).Benefit
				}
				b.StopTimer()
				if v.name == "Workers1" {
					baseline = benefits
				} else if baseline != nil {
					if len(benefits) != len(baseline) {
						b.Fatalf("edge count differs across variants: %d vs %d", len(benefits), len(baseline))
					}
					for e := range benefits {
						if benefits[e] != baseline[e] {
							b.Fatalf("edge %d benefit differs across variants: %v vs %v", e, benefits[e], baseline[e])
						}
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(evals), "evals/op")
		})
	}
	// MidSession prices the ERG after two oracle iterations. Iteration
	// 1's ERG, which Workers1 and Workers8 price, has no entity cluster
	// of two tuples and no approved synonym class, so only this variant
	// prices in-cluster cannot-links and approvals over existing classes.
	b.Run("MidSession", func(b *testing.B) {
		s, user := fig10Session(b, 1)
		for it := 0; it < 2; it++ {
			if _, err := s.RunIteration(user); err != nil {
				b.Fatal(err)
			}
		}
		var evals int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, n, err := s.BuildAnnotatedERG(1)
			if err != nil {
				b.Fatal(err)
			}
			evals = n
		}
		b.ReportMetric(float64(evals), "evals/op")
	})
}

// phases is the per-phase breakdown (Report.Timings) and the detect
// accounting of the phase benchmark's session, summed over its
// iterations.
type phases struct {
	detect, buildERG, annotate, sel time.Duration
	accepts, fallbacks              int
}

// runPhases runs four oracle-answered iterations on s — the
// amortization horizon that matters, since detection structures built
// in iteration 1 pay off in 2..n — and sums their Reports.
func runPhases(tb testing.TB, s *pipeline.Session, user pipeline.User) phases {
	tb.Helper()
	var p phases
	for it := 0; it < 4; it++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.Exhausted {
			tb.Fatal("session exhausted inside the phase benchmark")
		}
		p.detect += rep.Timings.Detect
		p.buildERG += rep.Timings.BuildERG
		p.annotate += rep.Timings.Benefit
		p.sel += rep.Timings.Select
		p.accepts += rep.DetectAccepts
		p.fallbacks += rep.DetectFallbacks
	}
	return p
}

// BenchmarkIterationPhases runs a short cleaning session over the
// maintained detection structures and reports the summed per-phase
// breakdown as custom metrics.
func BenchmarkIterationPhases(b *testing.B) {
	b.Run("Incremental", func(b *testing.B) {
		var p phases
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, user := fig10Session(b, 1)
			b.StartTimer()
			p = runPhases(b, s, user)
		}
		b.ReportMetric(float64(p.detect.Microseconds()), "detect_µs")
		b.ReportMetric(float64(p.buildERG.Microseconds()), "buildERG_µs")
		b.ReportMetric(float64(p.annotate.Microseconds()), "annotate_µs")
		b.ReportMetric(float64(p.sel.Microseconds()), "select_µs")
		b.ReportMetric(float64(p.accepts), "accepts/op")
		b.ReportMetric(float64(p.fallbacks), "fallbacks/op")
	})
}

// BenchmarkSessionSetup measures a session's construction cost on the
// Fig 10 configuration — entity-matching bootstrap (features + random
// forest), kNN token index, per-column standardizers and the base
// visualization — under the shared artifact cache (DESIGN.md §12).
// Cold builds every artifact into a fresh cache (first session on a
// server); Warm serves every artifact from a pre-populated cache (every
// later session over the same dataset in a multi-tenant server). The
// Cold/Warm ns/op ratio is the setup speedup the cache buys.
func BenchmarkSessionSetup(b *testing.B) {
	d := datagen.D1(datagen.Config{Scale: benchScale, Seed: 1})
	q := vql.MustParse(fig10Query)
	setup := func(b *testing.B, cache *artifact.Cache) {
		s, err := pipeline.NewSession(d.Dirty, q, d.KeyColumns, pipeline.Config{
			Seed: 1, Workers: 1, Artifacts: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.CurrentVis(); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			setup(b, artifact.New(0))
		}
	})
	b.Run("Warm", func(b *testing.B) {
		cache := artifact.New(0)
		setup(b, cache) // populate once; every timed setup hits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			setup(b, cache)
		}
	})
}

// BenchmarkAblation_DesignChoices measures what the documented design
// choices (transformation-rule generalization, merge hysteresis)
// contribute: final EMD per variant is reported as a custom metric.
func BenchmarkAblation_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv()
		_, out, err := experiments.Ablation(env, "Q1")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(out["full"].FinalDist(), "full_distN")
		b.ReportMetric(out["-generalize"].FinalDist(), "noGen_distN")
	}
}
