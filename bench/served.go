package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/cluster"
	"visclean/internal/loadgen"
	"visclean/internal/pipeline"
	"visclean/internal/service"
	"visclean/internal/web"
)

// served is a served workload's system: Shards registries, each behind
// web.Server's handler on a loopback listener, and a cluster router in
// front when there is more than one. Every iteration persists a
// snapshot into a temporary directory under the run's workdir.
type served struct {
	r       *run
	regs    []*service.Registry
	caches  []*artifact.Cache
	servers []*http.Server
	serving sync.WaitGroup
	router  *cluster.Router
	ring    *cluster.Ring // the router's placement, to find a session's shard
	base    string        // where clients send requests
	shards  []string
	snapDir string
	client  *http.Client
	truths  *loadgen.TruthCache
	pool    []loadgen.SpecJSON // the session specs sessions draw from
	cur     atomic.Pointer[phase]
}

func startServed(r *run, _ int) (system, error) {
	sz := r.cfg.sizes
	snapDir, err := os.MkdirTemp(r.cfg.workdir, "snapshots-")
	if err != nil {
		return nil, err
	}
	procs := runtime.NumCPU()
	sys := &served{
		r:       r,
		snapDir: snapDir,
		truths:  loadgen.NewTruthCache(),
		// At most nproc connections per host: with at most nproc client
		// goroutines, load never exceeds what the cores can issue.
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs},
		},
	}
	ok := false
	defer func() {
		if !ok {
			sys.close()
		}
	}()
	for i := 0; i < sz.Shards; i++ {
		cache := artifact.New(256 << 20)
		reg := service.NewRegistry(service.Config{
			Workers:     sz.Workers,
			SnapshotDir: snapDir,
			Factory:     sys.factory(cache),
			Logf:        func(string, ...any) {},
		})
		ws := web.New(web.Config{Registry: reg})
		ws.SetReady(true)
		url, err := sys.serve(ws.Handler())
		sys.regs = append(sys.regs, reg)
		sys.caches = append(sys.caches, cache)
		if err != nil {
			return nil, err
		}
		sys.shards = append(sys.shards, url)
	}
	sys.base = sys.shards[0]
	if sz.Shards > 1 {
		rt, err := cluster.New(cluster.Config{Shards: sys.shards, Logf: func(string, ...any) {}})
		if err != nil {
			return nil, err
		}
		sys.router = rt
		sys.ring = cluster.NewRing(64, sys.shards) // cluster.Config's default replicas
		if sys.base, err = sys.serve(rt.Handler()); err != nil {
			return nil, err
		}
	}

	datasets := []string{sz.Dataset}
	if sz.Dataset == "mix" {
		datasets = []string{"D1", "D2", "D3"}
	}
	for j := 0; j < sz.SeedPool; j++ {
		for _, ds := range datasets {
			sys.pool = append(sys.pool, loadgen.SpecJSON{
				Dataset: ds, Scale: sz.Scale, Seed: derive(r.cfg.seed, "pool-"+ds, j), K: sz.K,
			})
		}
	}
	// Session i opens pool[i % len(pool)] on shard i % len(shards) (see
	// sessionID), so with a pool that is a multiple of the shards each
	// pooled dataset is only ever opened on one shard.
	if len(sys.pool)%len(sys.shards) != 0 {
		return nil, fmt.Errorf("a pool of %d datasets does not divide among %d shards", len(sys.pool), len(sys.shards))
	}
	// Warm-up: open every pooled dataset on its shard, so the window
	// measures warm artifact acquisition, and build the clients' ground
	// truth.
	for j, sp := range sys.pool {
		if _, err := sys.truths.Truth(sp.Dataset, sp.Scale, sp.Seed); err != nil {
			return nil, err
		}
		if err := sys.warm(sys.shards[j%len(sys.shards)], sp); err != nil {
			return nil, fmt.Errorf("warm-up %s seed %d: %w", sp.Dataset, sp.Seed, err)
		}
	}
	ok = true
	return sys, nil
}

// serve starts an HTTP server for h on a loopback port.
func (sys *served) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	sys.servers = append(sys.servers, srv)
	sys.serving.Add(1)
	go func() {
		defer sys.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// factory is the registry's default factory — CachedFactory over the
// shard's artifact cache — timed, so served workloads report session
// builds like the in-process ones do.
func (sys *served) factory(cache *artifact.Cache) service.Factory {
	build := service.CachedFactory(cache)
	return func(spec service.Spec) (*pipeline.Session, pipeline.User, error) {
		t0 := time.Now()
		ps, u, err := build(spec)
		if ph := sys.cur.Load(); ph != nil {
			ph.addMs("session_build", time.Since(t0))
		}
		return ps, u, err
	}
}

// warm opens a session directly on one shard, reads its first chart and
// closes it.
func (sys *served) warm(shard string, sp loadgen.SpecJSON) error {
	code, body, _, err := sys.do(http.MethodPost, shard+"/api/session", sp, "")
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("create: status %d", code)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if code, _, _, err = sys.do(http.MethodGet, shard+"/api/session/"+out.ID+"/state", nil, ""); err == nil && code != http.StatusOK {
		err = fmt.Errorf("state: status %d", code)
	}
	if err != nil {
		return err
	}
	if code, _, _, err = sys.do(http.MethodDelete, shard+"/api/session/"+out.ID, nil, ""); err == nil && code != http.StatusNoContent {
		err = fmt.Errorf("close: status %d", code)
	}
	return err
}

// do sends one request and reads the whole response.
func (sys *served) do(method, url string, body any, rid string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := sys.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// queue sums the shards' pool queues and workers.
func (sys *served) queue() (queued, workers int) {
	for _, reg := range sys.regs {
		q, _, w := reg.QueueStats()
		queued += q
		workers += w
	}
	return queued, workers
}

func (sys *served) close() {
	for _, srv := range sys.servers {
		_ = srv.Close() // listener errors on close change nothing here
	}
	sys.serving.Wait()
	if sys.router != nil {
		sys.router.Close()
	}
	for _, reg := range sys.regs {
		reg.Shutdown()
	}
	sys.client.CloseIdleConnections()
	_ = os.RemoveAll(sys.snapDir) // temporary; a leftover is harmless
}

// drive runs the workload's client for one window: a closed loop of
// Clients sessions back to back, or, when Lambda is set, an open loop of
// sessions arriving at that rate over the window, followed by a drain.
// The first two sessions' final states are then replayed in process
// (check b) outside the measured time.
func (sys *served) drive(ph *phase) error {
	sz := sys.r.cfg.sizes
	sys.cur.Store(ph)
	defer sys.cur.Store(nil)
	e := newEngine(func(lag time.Duration) { ph.addMs("lag_all", lag) })
	var finals []servedFinal
	var finalsMu sync.Mutex
	record := func(f servedFinal) {
		finalsMu.Lock()
		finals = append(finals, f)
		finalsMu.Unlock()
	}

	if sz.Lambda > 0 {
		// Open loop at a fixed rate: one session arrives in every 1/λ slot
		// of the window, at a seeded uniform offset within its slot.
		rng := rand.New(rand.NewSource(derive(sys.r.cfg.seed, "arrivals", 0)))
		slots := int(ph.window.Seconds() * sz.Lambda)
		for i := 0; i < slots; i++ {
			due := ph.start.Add(time.Duration((float64(i) + rng.Float64()) / sz.Lambda * float64(time.Second)))
			sys.startSession(ph, e, i, sys.pool[i%len(sys.pool)], due, false, record, nil)
		}
	} else {
		var next atomic.Int64
		var slot func(due time.Time)
		slot = func(due time.Time) {
			if ph.over() {
				return
			}
			i := int(next.Add(1) - 1)
			sys.startSession(ph, e, i, sys.pool[i%len(sys.pool)], due, true, record,
				func() { e.at(time.Now(), slot) })
		}
		for c := 0; c < sz.Clients; c++ {
			e.at(time.Now(), slot)
		}
	}
	e.run(runtime.NumCPU())

	var bytes int64
	for _, c := range sys.caches {
		bytes += c.Stats().Bytes
	}
	ph.add("artifact_bytes", float64(bytes))
	if sz.Lambda > 0 {
		lag := ph.samples("lag")
		p90 := loadgen.Percentile(lag, 90)
		ph.r.note("generator_lag", p90 <= 20, fmt.Sprintf("p90 %.2f ms over %d requests (limit 20 ms)", p90, len(lag)))
	}
	ph.pause(func() {
		for _, f := range finals {
			checkReplay(ph, f, sys.truths, fmt.Sprintf("%s-replay-%d", ph.tag, f.spec.Seed))
		}
	})
	return nil
}

// sSession is one served session's client: a state machine whose every
// step is one request, run by the engine when it falls due.
type sSession struct {
	sys      *served
	ph       *phase
	e        *engine
	idx      int
	spec     loadgen.SpecJSON
	policy   *loadgen.Policy
	rng      *rand.Rand // think times and poll phases
	closed   bool       // a closed loop ends sessions when the window closes
	record   func(servedFinal)
	done     func()
	trace    string
	span     int
	start    time.Time
	deadline time.Time

	id       string
	iter     int // completed iterations
	rid      string
	rec      *iterRec
	q        *loadgen.QuestionJSON // the question on screen
	answered time.Time             // when the latest answer was due
	waiting  string                // the series of the wait in progress, if any
	final    *stateJSON
	polls    int
	missed   bool // a state read of the current wait has missed
}

func (sys *served) startSession(ph *phase, e *engine, idx int, sp loadgen.SpecJSON, due time.Time,
	closedLoop bool, record func(servedFinal), done func()) {
	gt, err := sys.truths.Truth(sp.Dataset, sp.Scale, sp.Seed) // built during warm-up
	if err != nil {
		sys.r.op(err)
		return
	}
	sp.ID = sys.sessionID(ph.tag, idx)
	s := &sSession{
		sys: sys, ph: ph, e: e, idx: idx, spec: sp,
		policy: loadgen.NewPolicy(gt, sp.Seed),
		rng:    rand.New(rand.NewSource(derive(sys.r.cfg.seed, "client", idx))),
		closed: closedLoop, record: record, done: done,
		trace:   fmt.Sprintf("s%d", idx),
		span:    ph.spans.reserve(),
		start:   due,
		waiting: "open",
	}
	s.deadline = due.Add(deadline)
	e.at(due, s.create)
}

// think draws the user's think time before an answer: exponential with
// the workload's mean, or none.
func (s *sSession) think() time.Duration {
	return time.Duration(s.rng.ExpFloat64() * s.sys.r.cfg.sizes.ThinkMs * float64(time.Millisecond))
}

// poll schedules the next state read of a wait. The first read follows
// the request at once; after it misses, the next comes a seeded random
// fraction of the poll interval later and then one interval apart. The
// random phase keeps the moment a wait is seen to end off a fixed grid,
// which would otherwise make medians jump between multiples of the
// interval.
func (s *sSession) poll(due time.Time, fn func(time.Time)) {
	if s.missed {
		s.e.at(due.Add(pollEvery), fn)
		return
	}
	s.missed = true
	s.e.at(time.Now().Add(time.Duration(s.rng.Float64()*float64(pollEvery))), fn)
}

// sessionID pins session idx's id as a function of the seed. Behind the
// router it picks ids that place sessions on the shards in turn: where a
// few dozen random ids land would otherwise decide how much a run queues.
func (sys *served) sessionID(tag string, idx int) string {
	for k := 0; ; k++ {
		id := fmt.Sprintf("%s%d-%x", tag, idx, derive(sys.r.cfg.seed, "id", idx*1000+k))
		if sys.ring == nil || sys.ring.Owner(id) == sys.shards[idx%len(sys.shards)] {
			return id
		}
	}
}

// stateJSON is the state response fields the client reads.
type stateJSON struct {
	loadgen.StateJSON
	CQG *struct {
		Vertices []string `json:"vertices"`
		Edges    []string `json:"edges"`
	} `json:"cqg"`
}

// errStatus is an unexpected HTTP status; any of them fails the
// session and check (c).
type errStatus struct {
	op   string
	code int
}

func (e errStatus) Error() string { return fmt.Sprintf("%s: status %d", e.op, e.code) }

// call sends one request as a span of the session (or of its current
// iteration).
func (s *sSession) call(method, path string, body any, name string) (int, []byte, http.Header, error) {
	parent, trace := s.span, s.trace
	if s.rec != nil {
		parent, trace = s.rec.span, s.rec.trace
	}
	t0 := time.Now()
	code, data, hdr, err := s.sys.do(method, s.sys.base+path, body, s.rid)
	s.ph.spans.add(parent, trace, name, "web", t0, time.Now())
	return code, data, hdr, err
}

// late fails the session when its deadline has passed.
func (s *sSession) late() bool {
	if time.Now().After(s.deadline) {
		s.fail(fmt.Errorf("session deadline of %v exceeded", deadline))
		return true
	}
	return false
}

// retryAfter reads a 503's Retry-After hint.
func retryAfter(h http.Header) time.Duration {
	if n, err := strconv.Atoi(h.Get("Retry-After")); err == nil && n > 0 {
		return time.Duration(n) * time.Second
	}
	return time.Second
}

func (s *sSession) create(due time.Time) {
	s.ph.addMs("lag", time.Since(due))
	if s.late() {
		return
	}
	code, body, hdr, err := s.call(http.MethodPost, "/api/session", s.spec, "POST /api/session")
	switch {
	case err != nil:
		s.fail(err)
	case code == http.StatusServiceUnavailable:
		s.ph.add("refused", 1)
		s.e.at(time.Now().Add(retryAfter(hdr)), s.create)
	case code != http.StatusCreated:
		s.fail(errStatus{"create", code})
	default:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			s.fail(err)
			return
		}
		s.id = out.ID
		s.e.at(time.Now(), s.opened)
	}
}

// opened reads the first chart: the open wait ends here.
func (s *sSession) opened(due time.Time) {
	if _, ok := s.state(); !ok {
		return
	}
	s.ph.addMs("open", time.Since(s.start))
	s.waiting = ""
	s.sys.r.op(nil)
	s.e.at(time.Now(), s.iterate)
}

func (s *sSession) iterate(due time.Time) {
	s.ph.addMs("lag", time.Since(due))
	if s.late() {
		return
	}
	if s.rec == nil {
		s.rid = fmt.Sprintf("%s-%d-%d", s.ph.tag, s.idx, s.iter+1)
		s.rec = s.ph.beginIteration(s.rid, fmt.Sprintf("%s/%d", s.trace, s.iter+1), due)
		s.waiting = "first_question"
	}
	s.ph.mu.Lock()
	s.rec.sent = time.Now()
	s.ph.mu.Unlock()
	code, _, hdr, err := s.call(http.MethodPost, "/api/session/"+s.id+"/iterate", nil, "POST iterate")
	switch {
	case err != nil:
		s.fail(err)
	case code == http.StatusServiceUnavailable:
		s.ph.add("refused", 1)
		s.e.at(time.Now().Add(retryAfter(hdr)), s.iterate)
	case code == http.StatusConflict:
		// The previous iteration's chart is visible, but its worker is
		// still persisting the snapshot; ask again at the next poll.
		s.e.at(due.Add(pollEvery), s.iterate)
	case code != http.StatusAccepted:
		s.fail(errStatus{"iterate", code})
	default:
		s.missed = false
		s.e.at(time.Now(), s.awaitQuestion)
	}
}

// awaitQuestion polls until the iteration's first question is visible.
func (s *sSession) awaitQuestion(due time.Time) {
	if s.late() {
		return
	}
	st, ok := s.state()
	if !ok {
		return
	}
	now := time.Now()
	switch {
	case st.Question != nil:
		fq := now.Sub(s.rec.due)
		s.ph.addMs("first_question", fq)
		s.ph.mu.Lock()
		s.rec.fq = fq
		s.ph.mu.Unlock()
		s.waiting = ""
		if st.CQG != nil {
			s.ph.add("cqg_vertices", float64(len(st.CQG.Vertices)))
			s.ph.add("cqg_edges", float64(len(st.CQG.Edges)))
		}
		s.ask(st.Question, now)
	case st.Iteration > s.iter:
		// A composite question graph without questions still commits.
		s.committed(st, now)
	case !st.Running:
		// The iteration ended without a question: the ERG is exhausted.
		if st.Error != "" {
			s.fail(errors.New(st.Error))
			return
		}
		s.sys.r.op(nil)
		s.rec, s.waiting = nil, ""
		s.e.at(now, s.close)
	default:
		s.poll(due, s.awaitQuestion)
	}
}

// ask schedules the answer to q after the user's think time.
func (s *sSession) ask(q *loadgen.QuestionJSON, shown time.Time) {
	s.q = q
	s.e.at(shown.Add(s.think()), s.answer)
}

func (s *sSession) answer(due time.Time) {
	s.ph.addMs("lag", time.Since(due))
	if s.late() {
		return
	}
	code, _, _, err := s.call(http.MethodPost, "/api/session/"+s.id+"/answer", s.policy.Answer(s.q), "POST answer")
	if err == nil && code != http.StatusNoContent {
		err = errStatus{"answer", code}
	}
	if err != nil {
		s.fail(err)
		return
	}
	s.sys.r.op(nil)
	// The next question or the refreshed chart is due; a failure before
	// either counts against the refresh wait.
	s.answered, s.waiting = due, "refresh"
	s.missed = false
	s.e.at(time.Now(), s.awaitNext)
}

// awaitNext polls after an answer until the next question is visible or
// the iteration has committed its refreshed chart.
func (s *sSession) awaitNext(due time.Time) {
	if s.late() {
		return
	}
	st, ok := s.state()
	if !ok {
		return
	}
	now := time.Now()
	switch {
	case st.Iteration > s.iter:
		s.ph.addMs("refresh", now.Sub(s.answered))
		s.committed(st, now)
	case st.Question != nil && st.Question.ID != s.q.ID:
		s.ph.addMs("answer", now.Sub(s.answered))
		s.waiting = ""
		s.ask(st.Question, now)
	case !st.Running:
		s.fail(fmt.Errorf("iteration %d stopped without committing: %q", s.iter+1, st.Error))
	default:
		s.poll(due, s.awaitNext)
	}
}

// committed ends the current iteration at the state that shows it
// committed, and moves on to the next iteration or closes the session.
func (s *sSession) committed(st stateJSON, now time.Time) {
	s.iter = st.Iteration
	s.ph.endIteration(s.rec, s.span, now)
	s.rec, s.rid, s.waiting = nil, "", ""
	s.sys.r.op(nil)
	s.final = &st
	// A closed loop ends its sessions when the window closes, except
	// session 0, whose dist_final must not depend on timing.
	if s.iter >= s.sys.r.cfg.sizes.Iters || (s.closed && s.idx > 0 && s.ph.over()) {
		s.e.at(now, s.close)
	} else {
		s.e.at(now, s.iterate)
	}
}

// state reads the session state; with a router in front, every tenth
// read is repeated directly against the owning shard to price the hop.
func (s *sSession) state() (stateJSON, bool) {
	path := "/api/session/" + s.id + "/state"
	t0 := time.Now()
	code, body, _, err := s.call(http.MethodGet, path, nil, "GET state")
	rtt := time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = errStatus{"state", code}
	}
	var st stateJSON
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		s.fail(err)
		return st, false
	}
	s.ph.add("state_kb", float64(len(body))/1024)
	s.polls++
	if s.sys.ring != nil && s.polls%10 == 0 {
		t1 := time.Now()
		code, _, _, err := s.sys.do(http.MethodGet, s.sys.ring.Owner(s.id)+path, nil, "")
		direct := time.Since(t1)
		if err == nil && code == http.StatusOK {
			s.ph.add("route_overhead", float64(rtt-direct)/float64(direct))
		}
	}
	return st, true
}

func (s *sSession) close(due time.Time) {
	if s.final != nil && s.idx < 2 {
		s.record(servedFinal{
			spec:        service.Spec{Dataset: s.spec.Dataset, Scale: s.spec.Scale, Seed: s.spec.Seed, K: s.spec.K}.WithDefaults(),
			iterations:  s.iter,
			fingerprint: s.final.Fingerprint(),
		})
	}
	if s.final != nil && s.idx == 0 {
		s.sys.r.setDist(s.final.Truth)
	}
	code, _, _, err := s.call(http.MethodDelete, "/api/session/"+s.id, nil, "DELETE session")
	if err == nil && code != http.StatusNoContent {
		err = errStatus{"close", code}
	}
	s.sys.r.op(err)
	s.end()
}

// fail counts the failed operation, records the wait it ended as missing
// the deadline, and abandons the session, closing it when it exists.
func (s *sSession) fail(err error) {
	s.sys.r.op(err)
	if s.waiting != "" {
		s.ph.addMs(s.waiting, deadline)
	}
	if s.id != "" {
		_, _, _, _ = s.sys.do(http.MethodDelete, s.sys.base+"/api/session/"+s.id, nil, "") // best effort
	}
	s.end()
}

func (s *sSession) end() {
	s.ph.spans.finish(s.span, 0, s.trace, "session", "unattributed", s.start, time.Now())
	if s.done != nil {
		s.done()
	}
}

// engine is a served workload's client. Every request is an event due
// at a time; a fixed set of goroutines run events as they fall due, so
// the load comes from at most that many requests at once. Latencies are
// measured from when an event was due, and how late each event started
// is the generator's lag. run returns once no event is queued or
// running.
type engine struct {
	lag func(time.Duration)

	mu      sync.Mutex
	q       events
	seq     uint64
	busy    int
	stopped bool
	wake    chan struct{}
	stop    chan struct{}
}

func newEngine(lag func(time.Duration)) *engine {
	return &engine{lag: lag, wake: make(chan struct{}, 1), stop: make(chan struct{})}
}

// at schedules fn to run at due.
func (e *engine) at(due time.Time, fn func(due time.Time)) {
	e.mu.Lock()
	e.seq++
	heap.Push(&e.q, event{due: due, seq: e.seq, fn: fn})
	e.mu.Unlock()
	e.kick()
}

func (e *engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// run executes events on n goroutines until none is left.
func (e *engine) run(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker()
		}()
	}
	wg.Wait()
}

func (e *engine) worker() {
	for {
		e.mu.Lock()
		if e.stopped {
			e.mu.Unlock()
			return
		}
		if len(e.q) == 0 {
			if e.busy == 0 {
				e.stopped = true
				close(e.stop)
				e.mu.Unlock()
				return
			}
			e.mu.Unlock()
			select {
			case <-e.wake:
			case <-e.stop:
			}
			continue
		}
		if wait := time.Until(e.q[0].due); wait > 0 {
			e.mu.Unlock()
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-e.wake:
			case <-e.stop:
			}
			t.Stop()
			continue
		}
		ev := heap.Pop(&e.q).(event)
		e.busy++
		e.mu.Unlock()
		e.lag(time.Since(ev.due))
		ev.fn(ev.due)
		e.mu.Lock()
		e.busy--
		e.mu.Unlock()
		e.kick()
	}
}

type event struct {
	due time.Time
	seq uint64
	fn  func(due time.Time)
}

// events is a min-heap by due time, first scheduled first on ties.
type events []event

func (h events) Len() int { return len(h) }
func (h events) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h events) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)   { *h = append(*h, x.(event)) }
func (h *events) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}
