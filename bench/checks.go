package main

import (
	"fmt"
	"math"
	"time"

	"visclean/internal/loadgen"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/service"
	"visclean/internal/vis"
)

// checkCharts is output check (a): every view's chart as the session
// reports it must equal, bit for bit, the view's query executed over a
// freshly materialized cleaned relation. It also times those two calls,
// the dataset and vql layers' share of a chart.
func checkCharts(ph *phase, ps *pipeline.Session, trace string, parent int) {
	charts, err := ps.CurrentVisAll()
	if err != nil {
		ph.r.note("charts", false, err.Error())
		return
	}
	t0 := time.Now()
	view := ps.CleanedView()
	t1 := time.Now()
	ph.addMs("cleaned_view", t1.Sub(t0))
	ph.spans.add(parent, trace, "pipeline.CleanedView", "dataset", t0, t1)
	for v, q := range ps.ViewQueries() {
		t0 := time.Now()
		want, err := q.Execute(view)
		t1 := time.Now()
		ph.addMs("execute", t1.Sub(t0))
		ph.spans.add(parent, trace, "vql.Execute", "vql", t0, t1)
		if err != nil {
			ph.r.note("charts", false, err.Error())
			return
		}
		if diff := chartDiff(charts[v], want); diff != "" {
			ph.r.note("charts", false, fmt.Sprintf("%s view %d: %s", trace, v, diff))
			return
		}
	}
	ph.r.note("charts", true, "")
}

// chartDiff describes the first difference between two charts, or
// returns "" when they are identical to the bit.
func chartDiff(got, want *vis.Data) string {
	if got.Type != want.Type || got.XField != want.XField || got.YField != want.YField {
		return "chart type or fields differ"
	}
	if len(got.Points) != len(want.Points) {
		return fmt.Sprintf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		w := want.Points[i]
		if p.Label != w.Label || p.HasX != w.HasX ||
			math.Float64bits(p.X) != math.Float64bits(w.X) || math.Float64bits(p.Y) != math.Float64bits(w.Y) {
			return fmt.Sprintf("point %d is %q=%v, want %q=%v", i, p.Label, p.Y, w.Label, w.Y)
		}
	}
	return ""
}

// servedFinal is a served session's final state, kept for check (b).
type servedFinal struct {
	spec        service.Spec // normalized, as the registry stores it
	iterations  int
	fingerprint string
}

// checkReplay is output check (b): a served session's final state must
// match an in-process replay of its normalized spec, built without the
// shared artifact cache and answered by the same ground-truth oracle.
// The replayed session also goes through check (a).
func checkReplay(ph *phase, f servedFinal, truths *loadgen.TruthCache, trace string) {
	ps, _, err := service.StandardFactory(f.spec)
	if err != nil {
		ph.r.note("served_replay", false, err.Error())
		return
	}
	defer ps.Close()
	gt, err := truths.Truth(f.spec.Dataset, f.spec.Scale, f.spec.Seed)
	if err != nil {
		ph.r.note("served_replay", false, err.Error())
		return
	}
	user := oracle.New(gt, f.spec.Seed)
	for i := 0; i < f.iterations; i++ {
		if _, err := ps.RunIteration(user); err != nil {
			ph.r.note("served_replay", false, err.Error())
			return
		}
	}
	chart, err := ps.CurrentVis()
	if err != nil {
		ph.r.note("served_replay", false, err.Error())
		return
	}
	var st loadgen.StateJSON
	if st.Truth, err = ps.DistToTruth(); err != nil {
		ph.r.note("served_replay", false, err.Error())
		return
	}
	for _, p := range chart.Points {
		st.Chart.Labels = append(st.Chart.Labels, p.Label)
		st.Chart.Values = append(st.Chart.Values, p.Y)
	}
	if got := st.Fingerprint(); got != f.fingerprint {
		ph.r.note("served_replay", false, fmt.Sprintf("%s %s seed %d after %d iterations: served %s, replayed %s",
			trace, f.spec.Dataset, f.spec.Seed, f.iterations, f.fingerprint, got))
		return
	}
	ph.r.note("served_replay", true, "")
	checkCharts(ph, ps, trace, 0)
}
