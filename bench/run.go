package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"visclean/internal/obs"
)

// sizes is one workload's shape. Fields that do not apply stay zero.
type sizes struct {
	Dataset string  `json:"dataset"` // D1, or "mix" for D1, D2, D3 in turn
	Scale   float64 `json:"scale"`
	Views   int     `json:"views"`
	Iters   int     `json:"iterations_per_session"`
	K       int     `json:"k"`
	Clients int     `json:"clients,omitempty"`
	Shards  int     `json:"shards,omitempty"`
	Workers int     `json:"workers_per_shard,omitempty"`
	// SeedPool is how many distinct seeds each dataset's sessions draw
	// from; a served workload warms every pooled dataset before its window.
	SeedPool int `json:"seed_pool,omitempty"`
	// Lambda is the open loop's session arrival rate per second.
	Lambda  float64 `json:"arrivals_per_s,omitempty"`
	ThinkMs float64 `json:"think_ms,omitempty"`
}

// deadline bounds one served session; missing it fails the session. A
// wait that ends in a failure, missed deadline included, is recorded as
// lasting this long, so failing slow requests cannot shorten the tail.
const deadline = 30 * time.Second

// workload is one benchmark input set. full is what the benchmark runs;
// short is what the smoke test runs.
type workload struct {
	name        string
	full, short sizes
	// start sets the system up for the k-th time in a run.
	start func(r *run, k int) (system, error)
}

// workloads are the benchmark's inputs; README.md gives each one's
// reason, and BENCHMARK.json repeats it.
var workloads = []*workload{
	// The analyst's waits on the largest working set, in process: detect,
	// annotate, train and view dominate, and every open is a cold build.
	// Scale 0.07 is the largest at which a 25 s window holds the 100
	// iterations a p90 needs. Sessions of 5 iterations put about 20 cold
	// opens in a window: the median of the 8 that 20-iteration sessions
	// gave moved by 10% between runs of one seed.
	{
		name:  "analyst-d1",
		start: startInProcess,
		full:  sizes{Dataset: "D1", Scale: 0.07, Views: 1, Iters: 5, K: 10},
		short: sizes{Dataset: "D1", Scale: 0.01, Views: 1, Iters: 2, K: 10},
	},
	// The same layers behind the 3-view dashboard: per-view derivation,
	// distance and incremental pricing instead of per-row work. Sessions
	// are 5 iterations long for the same reason as analyst-d1's.
	{
		name:  "dashboard-d1",
		start: startInProcess,
		full:  sizes{Dataset: "D1", Scale: 0.05, Views: 3, Iters: 5, K: 10},
		short: sizes{Dataset: "D1", Scale: 0.01, Views: 3, Iters: 2, K: 10},
	},
	// Session churn through one shard over loopback HTTP: web JSON,
	// create and close, warm artifact acquisition, snapshot fsync and the
	// 17-attribute datasets, with nothing queued. Twelve warmed datasets
	// per run keep one dataset's quirks from setting the numbers. One
	// client: a D1 open takes about five times a D2 or D3 open, and a
	// second client's iterations pushed enough of the fast opens past the
	// knee that the median open flipped between the two from run to run.
	{
		name:  "served-churn",
		start: startServed,
		full: sizes{Dataset: "mix", Scale: 0.01, Iters: 3, K: 10,
			Clients: 1, Shards: 1, Workers: 2, SeedPool: 4},
		short: sizes{Dataset: "mix", Scale: 0.005, Iters: 2, K: 10,
			Clients: 1, Shards: 1, Workers: 2, SeedPool: 1},
	},
	// The operator's view: sessions arriving at a fixed rate through the
	// router onto two one-worker shards, each question parking its worker
	// while the user thinks. Small CQGs and short think times keep an
	// iteration short enough for a window to hold about 500 of them. The
	// pools are busy about half the time: this machine's speed swings by a
	// third, and at 60–70% busy a slow spell saturated them and the waits
	// ran to seconds, while at 40% a window held too few iterations for a
	// steady p90.
	{
		name:  "served-open",
		start: startServed,
		full: sizes{Dataset: "D1", Scale: 0.005, Iters: 4, K: 3,
			Shards: 2, Workers: 1, SeedPool: 16, Lambda: 5, ThinkMs: 5},
		short: sizes{Dataset: "D1", Scale: 0.005, Iters: 2, K: 3,
			Shards: 2, Workers: 1, SeedPool: 2, Lambda: 4, ThinkMs: 5},
	},
}

// system is a workload's running system under test: set up once per
// set-up repetition, then driven through one or two measured windows.
type system interface {
	drive(ph *phase) error
	close()
}

// setupRepeats is how often a run sets its system up; setup_s is the
// median. A sub-second set-up needs five to keep the median steady.
const setupRepeats = 5

type runConfig struct {
	seed    int64
	window  time.Duration
	traced  bool
	sizes   sizes
	setups  int
	workdir string
}

// run is one workload run: its configuration and everything that
// outlives a single measured window.
type run struct {
	cfg runConfig

	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	checks map[string]*check // by name, in first-seen order below
	order  []string
	// distFinal is session 0's distance to the ground-truth chart after
	// its last iteration — deterministic for a seed.
	distFinal float64
	distSeen  bool
}

// note records one output-check outcome; a check fails if any instance
// failed, and keeps the first failure's detail.
func (r *run) note(name string, ok bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.checks[name]
	if c == nil {
		c = &check{Name: name, OK: true}
		r.checks[name] = c
		r.order = append(r.order, name)
	}
	if !ok && c.OK {
		c.OK, c.Detail = false, detail
	}
}

func (r *run) setDist(d float64) {
	r.mu.Lock()
	if !r.distSeen {
		r.distFinal, r.distSeen = d, true
	}
	r.mu.Unlock()
}

// op counts one user-level operation (open, iteration, answer, close)
// and whether it failed. An unexpected HTTP status also fails output
// check (c).
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err == nil {
		return
	}
	r.failed.Add(1)
	var es errStatus
	if errors.As(err, &es) {
		r.note("http_status", false, es.Error())
	}
}

// derive maps (seed, stream, i) to a positive seed, so every generated
// input of a run follows from --seed alone.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64()>>33) + 1
}

// execute sets the workload up cfg.setups times and measures it. An
// untraced run measures one window and reports the end-to-end metrics;
// a traced run measures an untraced and a traced half-window over the
// same inputs and reports the per-layer metrics.
func execute(w *workload, cfg runConfig) (*result, []spanJSON, error) {
	r := &run{cfg: cfg, checks: map[string]*check{}}
	obs.SetEnabled(false)
	obs.DefaultTracer.SetEnabled(false)

	var setups []float64
	var sys system
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if sys, err = w.start(r, i); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()

	res := &result{Workload: w.name, Env: stamp(cfg)}
	var spans []spanJSON
	if !cfg.traced {
		ph := newPhase(r, "u", cfg.window, false)
		if err := ph.measure(sys); err != nil {
			return nil, nil, err
		}
		res.Metrics = endToEnd(ph, setups)
	} else {
		base := newPhase(r, "u", cfg.window/2, false)
		if err := base.measure(sys); err != nil {
			return nil, nil, err
		}
		tr := newPhase(r, "t", cfg.window/2, true)
		obs.SetEnabled(true)
		obs.DefaultTracer.SetEnabled(true)
		err := tr.measure(sys)
		obs.SetEnabled(false)
		obs.DefaultTracer.SetEnabled(false)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = perLayer(tr, base)
		spans = tr.spans.export(w.name)
		res.SelfMs = tr.spans.selfTimes()
	}

	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	if r.distSeen {
		res.DistFinal = &r.distFinal
	}
	res.Correct = true
	for _, n := range r.order {
		c := *r.checks[n]
		res.Checks = append(res.Checks, c)
		res.Correct = res.Correct && c.OK
	}
	return res, spans, nil
}

// phase is one measured window: the samples, counters and spans it
// recorded.
type phase struct {
	r      *run
	tag    string // prefixes request ids so the two halves of a traced run never collide
	window time.Duration
	traced bool

	start  time.Time
	paused atomic.Int64 // ns spent on output checks, excluded from the window
	end    time.Time

	mu         sync.Mutex
	series     map[string][]float64
	iters      map[string]*iterRec // by request id
	iterations int
	heapPeak   uint64

	spans *spanLog // nil when untraced

	obs0, obs1 obsSnap
	mem0, mem1 runtime.MemStats
}

func newPhase(r *run, tag string, window time.Duration, traced bool) *phase {
	ph := &phase{
		r: r, tag: tag, window: window, traced: traced,
		series: map[string][]float64{},
		iters:  map[string]*iterRec{},
	}
	if traced {
		ph.spans = newSpanLog()
	}
	return ph
}

// measure drives the system through this window while a sampler
// watches the heap and, when traced, the pool queue and the pipeline's
// iteration traces.
func (ph *phase) measure(sys system) error {
	runtime.GC()
	ph.obs0 = readObs()
	runtime.ReadMemStats(&ph.mem0)
	drainTraces(nil) // skip traces recorded before this window
	ph.start = time.Now()
	ph.spans.setOrigin(ph.start)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.sample(sys, stop)
	}()
	err := sys.drive(ph)
	close(stop)
	wg.Wait()

	ph.end = time.Now()
	ph.sampleHeap()
	runtime.ReadMemStats(&ph.mem1)
	ph.obs1 = readObs()
	drainTraces(ph)
	return err
}

// over reports whether the window has run out; time spent on output
// checks does not count against it.
func (ph *phase) over() bool {
	return time.Since(ph.start) > ph.window+time.Duration(ph.paused.Load())
}

// elapsed is the measured time: wall time minus output checks.
func (ph *phase) elapsed() time.Duration {
	return ph.end.Sub(ph.start) - time.Duration(ph.paused.Load())
}

// pause runs an output check without charging its time to the window.
func (ph *phase) pause(f func()) {
	t0 := time.Now()
	f()
	ph.paused.Add(int64(time.Since(t0)))
}

func (ph *phase) add(name string, v float64) {
	ph.mu.Lock()
	ph.series[name] = append(ph.series[name], v)
	ph.mu.Unlock()
}

func (ph *phase) addMs(name string, d time.Duration) {
	ph.add(name, float64(d)/float64(time.Millisecond))
}

func (ph *phase) samples(name string) []float64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.series[name]
}

// iterRec is one iteration as the client saw it, keyed by the request
// id the pipeline's iteration trace carries in its label.
type iterRec struct {
	span     int       // the iteration's span id
	trace    string    // its trace id
	due      time.Time // when the client asked for the iteration
	sent     time.Time // when the request left the client
	end      time.Time // when the client saw the refreshed chart
	fq       time.Duration
	queue    time.Duration // pool queue wait, from the matching trace
	phases   time.Duration // sum of the trace's phase timings
	traced   bool          // a pipeline trace matched this iteration
	finished bool
}

// beginIteration registers an iteration under its request id.
func (ph *phase) beginIteration(rid, trace string, due time.Time) *iterRec {
	rec := &iterRec{span: ph.spans.reserve(), trace: trace, due: due, sent: due}
	ph.mu.Lock()
	ph.iters[rid] = rec
	ph.mu.Unlock()
	return rec
}

// endIteration records a completed iteration's wall time.
func (ph *phase) endIteration(rec *iterRec, parent int, end time.Time) {
	ph.mu.Lock()
	rec.end, rec.finished = end, true
	ph.iterations++
	ph.series["iteration"] = append(ph.series["iteration"], float64(end.Sub(rec.due))/float64(time.Millisecond))
	ph.mu.Unlock()
	ph.spans.finish(rec.span, parent, rec.trace, "iteration", "unattributed", rec.due, end)
}

// sample runs until stop: the heap every 100 ms, and when traced the
// pool queue depth and busy workers every 10 ms and the pipeline's
// iteration traces every 100 ms (the tracer's ring holds 256).
func (ph *phase) sample(sys system, stop <-chan struct{}) {
	tick := 100 * time.Millisecond
	if ph.traced {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		slow := !ph.traced || n%10 == 0
		if slow {
			ph.sampleHeap()
		}
		if !ph.traced {
			continue
		}
		if s, ok := sys.(*served); ok {
			queued, workers := s.queue()
			ph.add("queue_depth", float64(queued))
			if workers > 0 {
				ph.add("workers_busy", float64(obsWorkersBusy.Value())/float64(workers))
			}
		}
		if slow {
			drainTraces(ph)
		}
	}
}

func (ph *phase) sampleHeap() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.mu.Lock()
	if m.HeapInuse > ph.heapPeak {
		ph.heapPeak = m.HeapInuse
	}
	ph.mu.Unlock()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
