package service

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"visclean/internal/dataset"
	"visclean/internal/erg"
	"visclean/internal/obs"
	"visclean/internal/pipeline"
	"visclean/internal/vis"
)

// Session is one managed cleaning session: a pipeline.Session plus the
// lifecycle state the registry needs — its own lock, parked question,
// cancellation context and idle clock.
//
// Concurrency contract: the embedded pipeline session is NOT
// thread-safe. It is touched only by (a) the holder of its claim (see
// claim): the single pool worker running an iteration, or an AddView
// call, and (b) the registry while admitting the session (before it is
// registered) or tearing it down (once `closed` bars new claims and the
// last one has ended). Everything frontends read per poll (chart,
// distance, iteration count, report) is cached on this struct under mu
// by the claim holder, so State() never races the pipeline.
type Session struct {
	id   string
	spec Spec
	reg  *Registry

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ps       *pipeline.Session
	autoUser pipeline.User

	running   bool
	closed    bool
	pending   *Question
	nextQID   int
	iterCount int
	vis       *vis.Data
	// viewVis/viewQueries cache every registered view's chart and VQL
	// text in registration order; viewVis[0] == vis. Multi-view sessions
	// (DESIGN.md §13) poll all panels through one State call.
	viewVis     []*vis.Data
	viewQueries []string
	dist        float64
	lastRep     *pipeline.Report
	cqg         *CQGView
	errMsg      string
	lastActive  time.Time
	// iterTag is the request tag (X-Request-ID) of the iterate call that
	// scheduled the in-flight iteration; the worker folds it into the
	// iteration's obs trace label and clears it.
	iterTag string
	// iterDone is closed by the worker when the in-flight iteration
	// finishes; teardown waits on it after cancelling.
	iterDone chan struct{}
}

// Question is a parked cleaning question awaiting a client answer.
type Question struct {
	ID      int      `json:"id"`
	Kind    string   `json:"kind"` // "T", "A", "M", "O"
	Prompt  string   `json:"prompt"`
	Column  string   `json:"column,omitempty"`
	V1      string   `json:"v1,omitempty"`
	V2      string   `json:"v2,omitempty"`
	Current float64  `json:"current,omitempty"`
	Tuples  [][]Cell `json:"tuples,omitempty"`
	// TupleA/TupleB carry the raw tuple ids a machine client (loadgen's
	// oracle-backed drivers) needs to answer without parsing the prompt:
	// both for a T question, TupleA alone for M and O. Not omitempty —
	// tuple id 0 is valid.
	TupleA int `json:"tupleA"`
	TupleB int `json:"tupleB"`

	reply chan Answer
}

// Cell is one named cell of a tuple shown as question context.
type Cell struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Answer is a client's reply to a parked question.
type Answer struct {
	Yes      bool
	Value    float64
	HasValue bool
	Skip     bool
}

// CQGView is a renderable summary of the current composite question
// graph.
type CQGView struct {
	Vertices []string `json:"vertices"`
	Edges    []string `json:"edges"`
}

// State is a point-in-time view of a session for frontends.
type State struct {
	ID        string
	Spec      Spec
	Iteration int
	Running   bool
	Question  *Question
	CQG       *CQGView
	Report    *pipeline.Report
	Err       string
	Vis       *vis.Data
	// ViewVis/ViewQueries carry every registered view's chart and VQL
	// text in registration order; ViewVis[0] is the same chart as Vis.
	ViewVis     []*vis.Data
	ViewQueries []string
	DistToTruth float64
	LastActive  time.Time
}

func (s *Session) touch() {
	s.mu.Lock()
	s.lastActive = time.Now()
	s.mu.Unlock()
}

// State snapshots the session's cached view state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		ID:          s.id,
		Spec:        s.spec,
		Iteration:   s.iterCount,
		Running:     s.running,
		CQG:         s.cqg,
		Err:         s.errMsg,
		Vis:         s.vis,
		ViewVis:     s.viewVis,
		ViewQueries: s.viewQueries,
		DistToTruth: s.dist,
		LastActive:  s.lastActive,
	}
	if s.pending != nil {
		q := *s.pending
		st.Question = &q
	}
	if s.lastRep != nil {
		rep := *s.lastRep
		st.Report = &rep
	}
	return st
}

// refreshCache recomputes the cached chart/distance/iteration view from
// the pipeline. Callers must hold exclusive ownership of the pipeline
// (worker at iteration end, registry at create/restore).
func (s *Session) refreshCache() {
	all, err := s.ps.CurrentVisAll()
	d, derr := s.ps.DistToTruth()
	iter := s.ps.Iteration()
	queries := make([]string, 0, s.ps.NumViews())
	for _, q := range s.ps.ViewQueries() {
		queries = append(queries, q.String())
	}
	s.mu.Lock()
	if err == nil {
		s.viewVis = all
		s.vis = all[0]
	}
	s.viewQueries = queries
	if derr == nil {
		s.dist = d
	}
	s.iterCount = iter
	s.mu.Unlock()
}

// claim makes the caller the pipeline's sole owner until its release:
// it fails while the session is closed or already claimed, and
// otherwise sets running and the done channel a teardown waits on. An
// iteration's claim (iter) also clears the previous iteration's error
// and CQG and records the request tag for its trace label.
func (s *Session) claim(iter bool, tag string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.running {
		return ErrIterationRunning
	}
	s.running = true
	s.iterDone = make(chan struct{})
	s.lastActive = time.Now()
	if iter {
		s.errMsg, s.cqg, s.iterTag = "", nil, tag
	}
	return nil
}

// release ends a claim, recording an iteration's outcome in the same
// critical section that clears running, so a poll that sees the
// iteration finished also sees its report or error: a non-nil rep is
// the finished iteration's report, and a non-nil err other than
// cancellation its error. It then closes the done channel a teardown
// may be waiting on.
func (s *Session) release(rep *pipeline.Report, err error) {
	s.mu.Lock()
	s.running = false
	s.lastActive = time.Now()
	switch {
	case rep != nil:
		s.lastRep = rep
	case err == nil, errors.Is(err, context.Canceled):
		// Closed or evicted mid-iteration: partial answers stay applied
		// and logged; not an error worth surfacing.
	default:
		s.errMsg = err.Error()
	}
	done := s.iterDone
	s.iterDone = nil
	s.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// stop marks the session closed, which bars new claims and the late
// persist of an iteration that is still running, and cancels its
// context. It reports false if the session was already closed.
func (s *Session) stop() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	return true
}

// checkpoint refreshes the cached view and persists the session, while
// the caller still holds its claim — unless a teardown already closed
// the session. Skipping persist on closed sessions matters twice: a
// teardown that timed out on a wedged iteration decided the pipeline
// state is unsafe to snapshot, and a Close must not have its snapshot
// deletion raced by a late persist from the zombie iteration.
// (Eviction persists in teardown itself, after awaiting the claim.)
func (s *Session) checkpoint() {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		s.refreshCache()
		_ = s.reg.persistSession(s)
	}
}

// runIteration executes one iteration on a pool worker.
func (s *Session) runIteration() {
	// Sole owner of the pipeline from here to the release: stamp the
	// trace label with this iteration's request tag (if any) so the span
	// at /debug/traces names the request that scheduled it.
	s.mu.Lock()
	label := s.id
	if s.iterTag != "" {
		label += " rid=" + s.iterTag
		s.iterTag = ""
	}
	s.mu.Unlock()
	s.ps.SetTraceLabel(label)

	var user pipeline.User = &sessionUser{s: s}
	if s.autoUser != nil {
		user = s.autoUser
	}
	iterStart := time.Now()
	rep, err := s.ps.RunIterationCtx(s.ctx, user)
	if obs.Enabled() {
		obsIterationSeconds.Observe(time.Since(iterStart).Seconds())
	}
	s.checkpoint()
	if err != nil {
		s.release(nil, err)
		return
	}
	s.release(&rep, nil)
}

// sessionUser implements pipeline.User by parking each question on the
// session and blocking until a client answers, the park times out, or
// the session is cancelled — so an abandoned client can never leave the
// iteration goroutine (and its pool worker) blocked forever.
type sessionUser struct{ s *Session }

func (u *sessionUser) BeginCQG(g *erg.Graph) {
	view := &CQGView{}
	for _, v := range g.Vertices() {
		label := tupleLabel(v)
		if r := g.Repair(v); r != nil {
			label += " [" + r.Kind.String() + "]"
		}
		view.Vertices = append(view.Vertices, label)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		view.Edges = append(view.Edges, tupleLabel(e.A)+" — "+tupleLabel(e.B))
	}
	u.s.mu.Lock()
	u.s.cqg = view
	u.s.mu.Unlock()
}

func tupleLabel(id dataset.TupleID) string {
	return "t" + strconv.Itoa(int(id))
}

// ask parks a question and waits for its answer, with timeout and
// cancellation unpark paths.
func (u *sessionUser) ask(q Question) Answer {
	s := u.s
	reply := make(chan Answer, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Answer{Skip: true}
	}
	s.nextQID++
	q.ID = s.nextQID
	q.reply = reply
	s.pending = &q
	s.mu.Unlock()

	timer := time.NewTimer(s.reg.cfg.AnswerTimeout)
	defer timer.Stop()
	select {
	case a := <-reply:
		s.touch()
		return a
	case <-s.ctx.Done():
	case <-timer.C:
		obsAnswerTimeouts.Inc()
	}

	// Unpark: retract the question so a late answer gets ErrNoQuestion
	// instead of resolving a question nobody is waiting on.
	s.mu.Lock()
	if s.pending != nil && s.pending.reply == reply {
		s.pending = nil
	}
	s.mu.Unlock()
	// An answer may have been dispatched between the select and the
	// retraction; the reply buffer holds it.
	select {
	case a := <-reply:
		return a
	default:
	}
	return Answer{Skip: true}
}

func (u *sessionUser) tupleCells(id dataset.TupleID) []Cell {
	t := u.s.ps.Table()
	row, ok := t.RowByID(id)
	if !ok {
		return nil
	}
	out := make([]Cell, 0, len(row))
	for c, v := range row {
		out = append(out, Cell{Name: t.Schema()[c].Name, Value: v.String()})
	}
	return out
}

func (u *sessionUser) AnswerT(a, b dataset.TupleID) (bool, bool) {
	ans := u.ask(Question{
		Kind:   "T",
		Prompt: "Are " + tupleLabel(a) + " and " + tupleLabel(b) + " the same entity?",
		Tuples: [][]Cell{u.tupleCells(a), u.tupleCells(b)},
		TupleA: int(a), TupleB: int(b),
	})
	if ans.Skip {
		return false, false
	}
	return ans.Yes, true
}

func (u *sessionUser) AnswerA(column, v1, v2 string) (bool, bool) {
	ans := u.ask(Question{
		Kind:   "A",
		Prompt: "Do " + column + " values “" + v1 + "” and “" + v2 + "” denote the same thing?",
		Column: column, V1: v1, V2: v2,
	})
	if ans.Skip {
		return false, false
	}
	return ans.Yes, true
}

func (u *sessionUser) AnswerM(column string, id dataset.TupleID) (float64, bool) {
	ans := u.ask(Question{
		Kind:   "M",
		Prompt: tupleLabel(id) + " is missing its " + column + " value — what should it be?",
		Column: column,
		Tuples: [][]Cell{u.tupleCells(id)},
		TupleA: int(id),
	})
	if ans.Skip || !ans.HasValue {
		return 0, false
	}
	return ans.Value, true
}

func (u *sessionUser) AnswerO(column string, id dataset.TupleID, current float64) (bool, float64, bool) {
	ans := u.ask(Question{
		Kind:    "O",
		Prompt:  "Is " + column + " of " + tupleLabel(id) + " wrong (an outlier)? If yes, give the corrected value.",
		Column:  column,
		Current: current,
		Tuples:  [][]Cell{u.tupleCells(id)},
		TupleA:  int(id),
	})
	if ans.Skip {
		return false, 0, false
	}
	if !ans.Yes {
		return false, current, true
	}
	if !ans.HasValue {
		return false, 0, false
	}
	return true, ans.Value, true
}
