package main

import (
	"runtime"
	"time"

	"visclean/internal/loadgen"
)

// endToEnd computes the metrics a user of the system sees, from an
// untraced window. Waits are pooled over every session of the window.
func endToEnd(ph *phase, setups []float64) map[string]metric {
	m := map[string]metric{
		"setup_s":          {loadgen.Percentile(setups, 50), "s", len(setups)},
		"iterations_per_s": {ratio(float64(ph.iterations), ph.elapsed().Seconds()), "1/s", ph.iterations},
		"heap_peak_mb":     {float64(ph.heapPeak) / (1 << 20), "MB", 1},
	}
	for _, p := range []struct {
		name, series string
		pct          float64
	}{
		{"open_ms.p50", "open", 50},
		{"first_question_ms.p50", "first_question", 50},
		{"first_question_ms.p90", "first_question", 90},
		{"refresh_ms.p50", "refresh", 50},
		{"refresh_ms.p90", "refresh", 90},
	} {
		xs := ph.samples(p.series)
		m[p.name] = metric{loadgen.Percentile(xs, p.pct), "ms", len(xs)}
	}
	return m
}

// perLayer computes the per-layer metrics from a traced window; base is
// the untraced window over the same inputs that prices the tracing.
func perLayer(tr, base *phase) map[string]metric {
	d := tr.obs1.minus(tr.obs0)
	iters := float64(tr.iterations)
	m := map[string]metric{}
	p50 := func(name, series string) {
		xs := tr.samples(series)
		m[name] = metric{loadgen.Percentile(xs, 50), "ms", len(xs)}
	}
	set := func(name, unit string, v float64, n int) { m[name] = metric{v, unit, n} }

	// pipeline: session build, detect, the question loop, allocation.
	p50("pipeline.session_build_ms", "session_build")
	p50("pipeline.detect_ms.p50", "detect")
	p50("pipeline.apply_ms.p50", "apply")
	set("pipeline.detect_accept_ratio", "ratio",
		ratio(float64(d.detectAccepts), float64(d.detectAccepts+d.detectFallbacks)), int(d.detectAccepts+d.detectFallbacks))
	set("pipeline.questions_per_iter", "count", ratio(float64(d.questions), float64(d.iterations)), int(d.iterations))
	set("pipeline.alloc_mb_per_iter", "MB", ratio(float64(tr.mem1.TotalAlloc-tr.mem0.TotalAlloc)/(1<<20), iters), tr.iterations)
	set("pipeline.gc_per_iter", "count", ratio(float64(tr.mem1.NumGC-tr.mem0.NumGC), iters), tr.iterations)

	// erg and cqgselect: graph build, the asked CQG's size, selection.
	p50("erg.build_ms.p50", "build_erg")
	for _, c := range []struct{ name, series string }{
		{"erg.cqg_vertices", "cqg_vertices"}, {"erg.cqg_edges", "cqg_edges"},
	} {
		xs := tr.samples(c.series)
		set(c.name, "count", mean(xs), len(xs))
	}
	p50("cqgselect.select_ms.p50", "select")

	// benefit: annotate time and how much of its work the memo and the
	// incremental pricer saved.
	ann := tr.samples("annotate")
	p50("benefit.annotate_ms.p50", "annotate")
	set("benefit.annotate_ms.p90", "ms", loadgen.Percentile(ann, 90), len(ann))
	set("benefit.evals_per_iter", "count", ratio(float64(d.evals), float64(d.iterations)), int(d.iterations))
	set("benefit.memo_hit_ratio", "ratio", ratio(float64(d.memoHits), float64(d.memoHits+d.evals)), int(d.memoHits+d.evals))
	set("benefit.delta_accept_ratio", "ratio",
		ratio(float64(d.deltaAccepts), float64(d.deltaAccepts+d.deltaFallbacks)), int(d.deltaAccepts+d.deltaFallbacks))

	// par: how busy the fan-out workers were while the parallel phases
	// (annotate and train) ran.
	parallelS := (sum(ann) + sum(tr.samples("train"))) / 1000
	set("par.worker_busy_frac", "ratio", ratio(d.parBusy, parallelS*float64(runtime.GOMAXPROCS(0))), len(ann))

	p50("rf.train_ms.p50", "train")
	p50("vql.view_ms.p50", "view")
	p50("vql.execute_ms.p50", "execute")
	p50("dataset.cleaned_view_ms.p50", "cleaned_view")
	p50("distance.ms.p50", "distance")

	// artifact: the shared cache behind session builds.
	set("artifact.hit_ratio", "ratio",
		ratio(float64(d.artifactHits), float64(d.artifactHits+d.artifactMisses)), int(d.artifactHits+d.artifactMisses))
	set("artifact.misses", "count", float64(d.artifactMisses), 1)
	set("artifact.mb", "MB", mean(tr.samples("artifact_bytes"))/(1<<20), len(tr.samples("artifact_bytes")))

	// service: the pool queue, persistence and refusals. Shares are of
	// the user-visible waits, so a workload without the layer reads 0.
	var queue, fq, covered, wall time.Duration
	tr.mu.Lock()
	matched := 0
	for _, rec := range tr.iters {
		if !rec.finished || !rec.traced {
			continue
		}
		matched++
		queue += rec.queue
		fq += rec.fq
		covered += rec.queue + rec.phases
		wall += rec.end.Sub(rec.due)
	}
	tr.mu.Unlock()
	set("service.queue_share", "ratio", ratio(float64(queue), float64(fq)), matched)
	qd := tr.samples("queue_depth")
	maxDepth := 0.0
	for _, q := range qd {
		maxDepth = max(maxDepth, q)
	}
	set("service.queue_depth.max", "count", maxDepth, len(qd))
	set("service.workers_busy_frac", "ratio", mean(tr.samples("workers_busy")), len(tr.samples("workers_busy")))
	waitS := (sum(tr.samples("open")) + sum(tr.samples("first_question")) + sum(tr.samples("refresh"))) / 1000
	set("service.persist_share", "ratio", ratio(d.snapSeconds, waitS), int(d.snapCount))
	set("service.snapshot_kb", "KB", ratio(d.snapBytes, float64(d.snapCount))/1024, int(d.snapCount))
	set("service.refused", "count", float64(len(tr.samples("refused"))), 1)

	// web: the wait from an answer to the next question (in process, the
	// pipeline's gap between two questions), polling and state payloads.
	ans := tr.samples("answer")
	set("web.answer_ms.p50", "ms", loadgen.Percentile(ans, 50), len(ans))
	set("web.answer_ms.p90", "ms", loadgen.Percentile(ans, 90), len(ans))
	set("web.polls_per_iter", "count", ratio(float64(len(tr.samples("state_kb"))), iters), tr.iterations)
	set("web.state_kb", "KB", mean(tr.samples("state_kb")), len(tr.samples("state_kb")))

	// cluster: what the router adds to a request, and its retries.
	ro := tr.samples("route_overhead")
	set("cluster.route_overhead_frac", "ratio", loadgen.Percentile(ro, 50), len(ro))
	set("cluster.router_retries", "count", float64(d.routerRetries), 1)

	// loadgen: how often the client itself ran late, state polls
	// included (a late poll delays when a wait is seen to end).
	lag := tr.samples("lag_all")
	late := 0
	for _, l := range lag {
		if l > float64(pollEvery)/float64(time.Millisecond) {
			late++
		}
	}
	set("loadgen.late_frac", "ratio", ratio(float64(late), float64(len(lag))), len(lag))

	// trace: what tracing costs, and how much of an iteration's wall time
	// the phase timings and queue wait explain.
	set("trace.overhead_frac", "ratio", ratio(mean(tr.samples("iteration")), mean(base.samples("iteration")))-1, tr.iterations)
	set("trace.coverage_frac", "ratio", ratio(float64(covered), float64(wall)), matched)
	return m
}
