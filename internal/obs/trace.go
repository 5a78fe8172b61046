package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase is one named slice of a trace (an iteration's "annotate" time,
// say). Durations are nanoseconds so traces serialize to JSON without
// a custom marshaller.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"durationNs"`
}

// Trace is one completed span: a name (what kind of work), a label
// (which session/task did it), wall-clock start, total duration, and
// its phase breakdown. Seq increases monotonically per tracer so
// clients polling /debug/traces can detect what they have already seen.
type Trace struct {
	Seq        uint64  `json:"seq"`
	Name       string  `json:"name"`
	Label      string  `json:"label,omitempty"`
	StartUnix  int64   `json:"startUnixNano"`
	DurationNS int64   `json:"durationNs"`
	Phases     []Phase `json:"phases,omitempty"`
}

// Tracer keeps the most recent traces in a fixed-size ring buffer.
// Recording is O(1) and bounded in memory; readers copy out. Callers
// time their own work and hand the tracer finished traces (Record).
type Tracer struct {
	enabled atomic.Bool

	mu   sync.Mutex
	ring []Trace
	next int    // ring index of the next write
	n    int    // live entries, ≤ len(ring)
	seq  uint64 // total traces ever recorded
}

// NewTracer builds a tracer holding the last `capacity` traces. Tracers
// start disabled.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Trace, capacity)}
}

// DefaultTracer is the process-wide tracer the pipeline records
// iteration spans into and cmd/viscleanweb serves at /debug/traces.
var DefaultTracer = NewTracer(256)

// SetEnabled switches recording on or off. While off, Record is a no-op
// — zero allocation per call.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether the tracer records.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Record appends one completed trace built from an externally measured
// start time, duration and phase breakdown. phases is copied.
func (t *Tracer) Record(name, label string, start time.Time, total time.Duration, phases []Phase) {
	if !t.enabled.Load() {
		return
	}
	tr := Trace{
		Name:       name,
		Label:      label,
		StartUnix:  start.UnixNano(),
		DurationNS: total.Nanoseconds(),
		Phases:     append([]Phase(nil), phases...),
	}
	t.mu.Lock()
	t.seq++
	tr.Seq = t.seq
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Recent returns up to max traces, newest first. max ≤ 0 returns all
// buffered traces.
func (t *Tracer) Recent(max int) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest entry; walk backwards.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}
