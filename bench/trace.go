package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"visclean/internal/obs"
)

// spanJSON is one recorded span: the benchmark's own spans around every
// public call it makes, plus the pipeline's phase timings read from its
// iteration traces. Spans of one session share a trace id; an
// iteration's spans carry "<session>/<iteration>". A phase span's
// duration is exact, but its position inside the iteration is laid out
// in the trace's phase order, because the pipeline reports durations
// only.
type spanJSON struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Trace    string `json:"trace"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"` // since the traced window began
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps a traced window's spans in memory. A nil *spanLog (an
// untraced window) ignores every call.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	next   int
	spans  []spanJSON
}

func newSpanLog() *spanLog { return &spanLog{} }

func (l *spanLog) setOrigin(t time.Time) {
	if l != nil {
		l.origin = t
	}
}

// reserve hands out a span id before the span ends, so children can
// name their parent while it is still open.
func (l *spanLog) reserve() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// finish records the span reserved as id.
func (l *spanLog) finish(id, parent int, trace, name, layer string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, spanJSON{
		ID: id, Parent: parent, Trace: trace, Name: name, Layer: layer,
		StartNs: start.Sub(l.origin).Nanoseconds(), EndNs: end.Sub(l.origin).Nanoseconds(),
	})
	l.mu.Unlock()
}

// add records a finished span and returns its id.
func (l *spanLog) add(parent int, trace, name, layer string, start, end time.Time) int {
	id := l.reserve()
	l.finish(id, parent, trace, name, layer, start, end)
	return id
}

func (l *spanLog) export(workload string) []spanJSON {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]spanJSON(nil), l.spans...)
	for i := range out {
		out[i].Workload = workload
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTimes sums, per layer, each span's self time: its duration minus
// the part of it its children cover (children may overlap — a state poll
// runs while the pipeline annotates — so their union is subtracted).
func (l *spanLog) selfTimes() map[string]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]spanJSON{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		self := s.EndNs - s.StartNs - covered(s, children[s.ID])
		out[s.Layer] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent spanJSON, kids []spanJSON) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// phaseLayer maps the pipeline's trace phases to the package that does
// the work and to the series the per-layer metrics read.
var phaseLayer = map[string]string{
	"detect":    "pipeline",
	"build_erg": "erg",
	"annotate":  "benefit",
	"select":    "cqgselect",
	"apply":     "pipeline",
	"train":     "rf",
	"view":      "vql",
	"distance":  "distance",
}

var (
	traceMu  sync.Mutex
	traceSeq uint64 // newest pipeline trace already consumed
)

// drainTraces consumes the pipeline's iteration traces recorded since
// the last drain. Each carries the request id the client tagged its
// iteration with; its phases become samples and child spans of that
// iteration, and its start, minus when the request was sent, is the
// iteration's wait for a pool worker. With ph nil the traces are
// skipped.
func drainTraces(ph *phase) {
	traceMu.Lock()
	defer traceMu.Unlock()
	recent := obs.DefaultTracer.Recent(0) // newest first
	for i := len(recent) - 1; i >= 0; i-- {
		tr := recent[i]
		if tr.Seq <= traceSeq {
			continue
		}
		traceSeq = tr.Seq
		if ph == nil || tr.Name != "iteration" {
			continue
		}
		_, rid, ok := strings.Cut(tr.Label, " rid=")
		if !ok {
			continue
		}
		ph.mu.Lock()
		rec := ph.iters[rid]
		ph.mu.Unlock()
		if rec == nil {
			continue
		}
		start := time.Unix(0, tr.StartUnix)
		at := start
		var total time.Duration
		for _, p := range tr.Phases {
			d := time.Duration(p.DurationNS)
			ph.addMs(p.Name, d)
			ph.spans.add(rec.span, rec.trace, p.Name, phaseLayer[p.Name], at, at.Add(d))
			at = at.Add(d)
			total += d
		}
		ph.mu.Lock()
		rec.queue, rec.phases, rec.traced = start.Sub(rec.sent), total, true
		ph.mu.Unlock()
	}
}

// The program's own metrics, read by name from the process-wide
// registry (registration is idempotent, so these are the series the
// instrumented packages write).
var (
	obsIterations     = obs.Default.Counter("visclean_pipeline_iterations_total", "")
	obsEvals          = obs.Default.Counter("visclean_benefit_evals_total", "")
	obsMemoHits       = obs.Default.Counter("visclean_benefit_memo_hits_total", "")
	obsDeltaAccepts   = obs.Default.Counter("visclean_benefit_delta_accepts_total", "")
	obsDeltaFallbacks = obs.Default.Counter("visclean_benefit_delta_fallbacks_total", "")
	obsDetectAccepts  = obs.Default.Counter("visclean_detect_delta_accepts_total", "")
	obsDetectFallback = obs.Default.Counter("visclean_detect_delta_fallbacks_total", "")
	obsArtifactHits   = obs.Default.Counter("visclean_artifact_hits_total", "")
	obsArtifactMisses = obs.Default.Counter("visclean_artifact_misses_total", "")
	obsRouterRetries  = obs.Default.Counter("visclean_router_retries_total", "")
	obsParBusy        = obs.Default.FloatCounter("visclean_par_worker_busy_seconds_total", "")
	obsSnapSeconds    = obs.Default.Histogram("visclean_service_snapshot_seconds", "", obs.TimeBuckets)
	obsSnapBytes      = obs.Default.Histogram("visclean_service_snapshot_bytes", "", obs.SizeBuckets)
	obsWorkersBusy    = obs.Default.Gauge("visclean_service_workers_busy", "")
	obsQuestions      = func() []*obs.Counter {
		var cs []*obs.Counter
		for _, k := range []string{"T", "A", "M", "O"} {
			cs = append(cs, obs.Default.Counter("visclean_pipeline_questions_total", "", obs.Label{Key: "kind", Value: k}))
		}
		return cs
	}()
)

// obsSnap is one reading of the program's counters; per-layer ratios
// use the difference between a window's two readings.
type obsSnap struct {
	iterations, questions           int64
	evals, memoHits                 int64
	deltaAccepts, deltaFallbacks    int64
	detectAccepts, detectFallbacks  int64
	artifactHits, artifactMisses    int64
	routerRetries                   int64
	parBusy, snapSeconds, snapBytes float64
	snapCount                       int64
}

func readObs() obsSnap {
	s := obsSnap{
		iterations:      obsIterations.Value(),
		evals:           obsEvals.Value(),
		memoHits:        obsMemoHits.Value(),
		deltaAccepts:    obsDeltaAccepts.Value(),
		deltaFallbacks:  obsDeltaFallbacks.Value(),
		detectAccepts:   obsDetectAccepts.Value(),
		detectFallbacks: obsDetectFallback.Value(),
		artifactHits:    obsArtifactHits.Value(),
		artifactMisses:  obsArtifactMisses.Value(),
		routerRetries:   obsRouterRetries.Value(),
		parBusy:         obsParBusy.Value(),
		snapSeconds:     obsSnapSeconds.Sum(),
		snapBytes:       obsSnapBytes.Sum(),
		snapCount:       obsSnapBytes.Count(),
	}
	for _, c := range obsQuestions {
		s.questions += c.Value()
	}
	return s
}

func (a obsSnap) minus(b obsSnap) obsSnap {
	return obsSnap{
		iterations:      a.iterations - b.iterations,
		questions:       a.questions - b.questions,
		evals:           a.evals - b.evals,
		memoHits:        a.memoHits - b.memoHits,
		deltaAccepts:    a.deltaAccepts - b.deltaAccepts,
		deltaFallbacks:  a.deltaFallbacks - b.deltaFallbacks,
		detectAccepts:   a.detectAccepts - b.detectAccepts,
		detectFallbacks: a.detectFallbacks - b.detectFallbacks,
		artifactHits:    a.artifactHits - b.artifactHits,
		artifactMisses:  a.artifactMisses - b.artifactMisses,
		routerRetries:   a.routerRetries - b.routerRetries,
		parBusy:         a.parBusy - b.parBusy,
		snapSeconds:     a.snapSeconds - b.snapSeconds,
		snapBytes:       a.snapBytes - b.snapBytes,
		snapCount:       a.snapCount - b.snapCount,
	}
}
