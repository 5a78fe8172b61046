package pipeline

// Observability wiring (see DESIGN.md §5 for the full catalog). The
// pipeline computes its timings and counters regardless — they are part
// of Report — and this file only mirrors them into the process-wide
// obs registry and tracer after each iteration. Nothing here feeds back
// into the computation, so determinism is untouched whether obs is
// enabled or not, and with obs disabled observeIteration costs a
// handful of gated atomic loads.

import (
	"time"

	"visclean/internal/benefit"
	"visclean/internal/obs"
)

var (
	obsIterations = obs.Default.Counter("visclean_pipeline_iterations_total",
		"Completed cleaning iterations (all sessions).")
	obsExhausted = obs.Default.Counter("visclean_pipeline_exhausted_total",
		"Iterations that found the ERG exhausted (nothing left to ask).")
	obsQuestions = obs.Default.Counter("visclean_pipeline_questions_total",
		"Cleaning questions put to users, by kind.", obs.Label{Key: "kind", Value: "T"})
	obsQuestionsA = obs.Default.Counter("visclean_pipeline_questions_total",
		"", obs.Label{Key: "kind", Value: "A"})
	obsQuestionsM = obs.Default.Counter("visclean_pipeline_questions_total",
		"", obs.Label{Key: "kind", Value: "M"})
	obsQuestionsO = obs.Default.Counter("visclean_pipeline_questions_total",
		"", obs.Label{Key: "kind", Value: "O"})
	obsUnanswered = obs.Default.Counter("visclean_pipeline_unanswered_total",
		"Questions users skipped or that timed out unanswered.")

	obsBenefitEvals = obs.Default.Counter("visclean_benefit_evals_total",
		"Unique hypothetical visualizations derived by the benefit model (memo misses).")
	obsMemoHits = obs.Default.Counter("visclean_benefit_memo_hits_total",
		"Benefit prices served from the per-iteration memo instead of re-derived.")
	obsDetectAccepts = obs.Default.Counter("visclean_detect_delta_accepts_total",
		"Detect-phase kNN suggestions served from the maintained neighbour cache.")
	obsDetectFallbacks = obs.Default.Counter("visclean_detect_delta_fallbacks_total",
		"Detect-phase kNN suggestions recomputed from the live index (cache miss or invalidated).")

	obsViewRegistrations = obs.Default.Counter("visclean_pipeline_view_registrations_total",
		"Extra views registered on multi-view sessions (DESIGN.md §13) beyond the primary — construction-time extras, live AddView calls, and replayed registrations during restore alike.")
	obsViewDistMoved = obs.Default.Histogram("visclean_pipeline_view_dist_moved",
		"Per-view chart movement (dist between the view's before/after charts) per committed iteration; multi-view sessions observe once per view.",
		distBuckets)

	obsPhaseSeconds = map[string]*obs.Histogram{
		"detect":    phaseHist("detect"),
		"build_erg": phaseHist("build_erg"),
		"annotate":  phaseHist("annotate"),
		"select":    phaseHist("select"),
		"apply":     phaseHist("apply"),
		"train":     phaseHist("train"),
		"view":      phaseHist("view"),
		"distance":  phaseHist("distance"),
	}

	obsOpenPhaseSeconds = map[string]*obs.Histogram{
		"blocking": openPhaseHist("blocking"),
		"features": openPhaseHist("features"),
		"seed":     openPhaseHist("seed"),
		"train":    openPhaseHist("train"),
		"probs":    openPhaseHist("probs"),
	}
)

// distBuckets cover per-iteration chart movement: label-aligned EMD
// values, usually well under 1 at the reproduction scales.
var distBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5}

func phaseHist(phase string) *obs.Histogram {
	help := ""
	if phase == "detect" { // HELP is per metric name; attach it once
		help = "Per-iteration wall time by framework phase (Fig 18 categories)."
	}
	return obs.Default.Histogram("visclean_iteration_phase_seconds", help,
		obs.TimeBuckets, obs.Label{Key: "phase", Value: phase})
}

func openPhaseHist(phase string) *obs.Histogram {
	help := ""
	if phase == "blocking" { // HELP is per metric name; attach it once
		help = "Wall time of each step of a cold EM bootstrap build (session open, DESIGN.md §12); artifact cache hits record nothing."
	}
	return obs.Default.Histogram("visclean_session_open_phase_seconds", help,
		obs.TimeBuckets, obs.Label{Key: "phase", Value: phase})
}

// openPhases times consecutive steps of one bootstrap build. With obs
// off it reads no clock.
type openPhases struct {
	on   bool
	last time.Time
}

func startOpenPhases() openPhases {
	if !obs.Enabled() {
		return openPhases{}
	}
	return openPhases{on: true, last: time.Now()}
}

// done observes the time since the previous step ended as phase.
func (p *openPhases) done(phase string) {
	if !p.on {
		return
	}
	now := time.Now()
	obsOpenPhaseSeconds[phase].Observe(now.Sub(p.last).Seconds())
	p.last = now
}

// noteBenefit copies an estimator's work accounting into the report.
func (r *Report) noteBenefit(st benefit.Stats) {
	r.BenefitEvals = st.Evals
	r.MemoHits = st.MemoHits
}

// observeIteration publishes one finished iteration's report to the
// obs registry and records its phase breakdown as a trace span.
func (s *Session) observeIteration(rep *Report, start time.Time) {
	if obs.Enabled() {
		obsIterations.Inc()
		if rep.Exhausted {
			obsExhausted.Inc()
		}
		obsQuestions.Add(int64(rep.TQuestions))
		obsQuestionsA.Add(int64(rep.AQuestions))
		obsQuestionsM.Add(int64(rep.MQuestions))
		obsQuestionsO.Add(int64(rep.OQuestions))
		obsUnanswered.Add(int64(rep.Unanswered))
		obsBenefitEvals.Add(int64(rep.BenefitEvals))
		obsMemoHits.Add(int64(rep.MemoHits))
		obsDetectAccepts.Add(int64(rep.DetectAccepts))
		obsDetectFallbacks.Add(int64(rep.DetectFallbacks))
		for _, d := range rep.ViewDistMoved {
			obsViewDistMoved.Observe(d)
		}
		tm := rep.Timings
		obsPhaseSeconds["detect"].Observe(tm.Detect.Seconds())
		obsPhaseSeconds["build_erg"].Observe(tm.BuildERG.Seconds())
		obsPhaseSeconds["annotate"].Observe(tm.Benefit.Seconds())
		obsPhaseSeconds["select"].Observe(tm.Select.Seconds())
		obsPhaseSeconds["apply"].Observe(tm.Apply.Seconds())
		obsPhaseSeconds["train"].Observe(tm.Train.Seconds())
		obsPhaseSeconds["view"].Observe(tm.View.Seconds())
		obsPhaseSeconds["distance"].Observe(tm.Distance.Seconds())
	}
	if obs.DefaultTracer.Enabled() {
		tm := rep.Timings
		obs.DefaultTracer.Record("iteration", s.traceLabel, start, time.Since(start), []obs.Phase{
			{Name: "detect", DurationNS: tm.Detect.Nanoseconds()},
			{Name: "build_erg", DurationNS: tm.BuildERG.Nanoseconds()},
			{Name: "annotate", DurationNS: tm.Benefit.Nanoseconds()},
			{Name: "select", DurationNS: tm.Select.Nanoseconds()},
			{Name: "apply", DurationNS: tm.Apply.Nanoseconds()},
			{Name: "train", DurationNS: tm.Train.Nanoseconds()},
			{Name: "view", DurationNS: tm.View.Nanoseconds()},
			{Name: "distance", DurationNS: tm.Distance.Nanoseconds()},
		})
	}
}
