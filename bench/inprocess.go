package main

import (
	"fmt"
	"time"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/erg"
	"visclean/internal/experiments"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// inprocess is a closed loop with one client calling the pipeline
// directly: no service, web, persistence, router or shared artifact
// cache stands between the analyst and the machine, so every open is a
// cold build and every wait is pipeline time.
type inprocess struct {
	r       *run
	queries []*vql.Query // the D1 dashboard's first Views panels
}

func startInProcess(r *run, k int) (system, error) {
	sys := &inprocess{r: r}
	for _, src := range experiments.MultiViewViews()[:r.cfg.sizes.Views] {
		q, err := vql.Parse(src)
		if err != nil {
			return nil, err
		}
		sys.queries = append(sys.queries, q)
	}
	// Set-up is the cold open of the first session, through its first
	// chart. Each set-up opens another of the seed's sessions, so that
	// setup_s, their median, does not hang on one generated table.
	s, err := sys.open(nil, k, 0)
	if err != nil {
		return nil, err
	}
	s.ps.Close()
	return sys, nil
}

func (sys *inprocess) close() {}

// ipSession is one open in-process session.
type ipSession struct {
	ps    *pipeline.Session
	truth *oracle.GroundTruth
	seed  int64
}

// open generates session i's table and opens a session over it; with ph
// set it records the build, the open wait and their spans under parent.
func (sys *inprocess) open(ph *phase, i, parent int) (*ipSession, error) {
	sz := sys.r.cfg.sizes
	seed := derive(sys.r.cfg.seed, "session", i)
	trace := fmt.Sprintf("s%d", i)

	t0 := time.Now()
	d := datagen.D1(datagen.Config{Scale: sz.Scale, Seed: seed})
	truthVis, err := sys.queries[0].Execute(d.Truth.Clean)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ps, err := pipeline.NewSession(d.Dirty, sys.queries[0], d.KeyColumns, pipeline.Config{
		K: sz.K, Seed: seed, Queries: sys.queries[1:], TruthVis: truthVis,
	})
	t2 := time.Now()
	if err == nil {
		_, err = ps.CurrentVisAll()
	}
	t3 := time.Now()
	sys.r.op(err)
	if err != nil {
		if ph != nil {
			ph.addMs("open", deadline)
		}
		return nil, err
	}
	if ph != nil {
		ph.addMs("session_build", t2.Sub(t0))
		ph.addMs("open", t3.Sub(t1))
		ph.spans.add(parent, trace, "datagen.D1", "datagen", t0, t1)
		ph.spans.add(parent, trace, "pipeline.NewSession", "pipeline", t1, t2)
		ph.spans.add(parent, trace, "pipeline.CurrentVisAll", "vql", t2, t3)
	}
	return &ipSession{ps: ps, truth: d.Truth, seed: seed}, nil
}

// drive runs sessions back to back until the window closes; the
// iteration in flight then finishes and the session ends there. Session
// 0 always runs all its iterations, so its dist_final is a function of
// the seed alone.
func (sys *inprocess) drive(ph *phase) error {
	for i := 0; !ph.over(); i++ {
		sys.session(ph, i)
	}
	return nil
}

func (sys *inprocess) session(ph *phase, i int) {
	trace := fmt.Sprintf("s%d", i)
	span := ph.spans.reserve()
	start := time.Now()
	s, err := sys.open(ph, i, span)
	if err != nil {
		return
	}
	user := &benchUser{o: oracle.New(s.truth, s.seed)}
	for it := 1; it <= sys.r.cfg.sizes.Iters && (i == 0 || !ph.over()); it++ {
		rid := fmt.Sprintf("%s-%d-%d", ph.tag, i, it)
		s.ps.SetTraceLabel(trace + " rid=" + rid)
		user.reset()
		t0 := time.Now()
		rec := ph.beginIteration(rid, fmt.Sprintf("%s/%d", trace, it), t0)
		rep, err := s.ps.RunIteration(user)
		end := time.Now()
		sys.r.op(err)
		sys.r.attempted.Add(int64(user.n))
		if err != nil {
			// The wait the failure ended counts as missing the deadline.
			if user.begin.IsZero() {
				ph.addMs("first_question", deadline)
			} else {
				ph.addMs("refresh", deadline)
			}
			break
		}
		if rep.Exhausted || user.begin.IsZero() {
			break
		}
		fq := user.begin.Sub(t0)
		ph.addMs("first_question", fq)
		for _, w := range user.waits {
			ph.addMs("answer", w)
		}
		ph.addMs("refresh", end.Sub(user.last))
		ph.add("cqg_vertices", float64(rep.CQGVertices))
		ph.add("cqg_edges", float64(rep.CQGEdges))
		ph.mu.Lock()
		rec.fq = fq
		ph.mu.Unlock()
		ph.endIteration(rec, span, end)
	}
	if i == 0 {
		if d, err := s.ps.DistToTruth(); err == nil {
			sys.r.setDist(d)
		}
	}
	ph.pause(func() { checkCharts(ph, s.ps, trace, span) })
	s.ps.Close()
	sys.r.op(nil)
	ph.spans.finish(span, 0, trace, "session", "unattributed", start, time.Now())
}

// benchUser answers from the ground truth with zero think time and
// clocks what the analyst waits for: the composite question's arrival
// (BeginCQG), the gap between returning an answer and being asked the
// next question, and the last answer's return.
type benchUser struct {
	o     *oracle.Oracle
	begin time.Time       // the CQG was shown
	last  time.Time       // the latest answer was returned
	n     int             // answers returned this iteration
	waits []time.Duration // answer returned → next question asked
}

func (u *benchUser) reset() {
	u.begin, u.last, u.n, u.waits = time.Time{}, time.Time{}, 0, u.waits[:0]
}

// BeginCQG implements pipeline.CQGObserver: the first question is
// visible.
func (u *benchUser) BeginCQG(*erg.Graph) {
	u.begin = time.Now()
	u.last = u.begin
}

func (u *benchUser) asking() {
	if u.n > 0 {
		u.waits = append(u.waits, time.Since(u.last))
	}
}

func (u *benchUser) answered() {
	u.n++
	u.last = time.Now()
}

func (u *benchUser) AnswerT(a, b dataset.TupleID) (bool, bool) {
	u.asking()
	defer u.answered()
	return u.o.AnswerT(a, b)
}

func (u *benchUser) AnswerA(column, v1, v2 string) (bool, bool) {
	u.asking()
	defer u.answered()
	return u.o.AnswerA(column, v1, v2)
}

func (u *benchUser) AnswerM(column string, id dataset.TupleID) (float64, bool) {
	u.asking()
	defer u.answered()
	return u.o.AnswerM(column, id)
}

func (u *benchUser) AnswerO(column string, id dataset.TupleID, current float64) (bool, float64, bool) {
	u.asking()
	defer u.answered()
	return u.o.AnswerO(column, id, current)
}
