// Package web is VisClean's HTTP shell: a thin handler layer over the
// internal/service session registry that serves the composite-question
// GUI (§VI of the paper), the JSON session API, the operational
// endpoints (/metrics, /debug/traces, optional pprof), and the cluster
// plumbing — health/readiness probes and the snapshot export/import
// pair the internal/cluster router composes into session migration
// (DESIGN.md §9).
//
// Every handler parses the request, calls the registry, and serializes
// the result; all session state, locking, lifecycle and persistence
// live in internal/service. The same Server runs standalone under
// cmd/viscleanweb and as one shard of a cluster behind
// cmd/viscleanrouter.
package web

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"visclean/internal/service"
	"visclean/internal/vis"
)

// Config parameterizes a Server.
type Config struct {
	// Registry is the session registry the server fronts (required).
	Registry *service.Registry
	// Defaults seed new sessions; request bodies override field by field.
	Defaults service.Spec
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
}

// Readiness states reported by GET /readyz. A server starts in
// StateStarting, flips to StateReady once restore finishes (SetReady),
// and to StateDraining when shutdown begins (SetDraining) — the router
// routes new work to Ready shards only and pulls sessions off Draining
// ones.
const (
	StateStarting int32 = iota
	StateReady
	StateDraining
)

// Server is the HTTP shell. Zero value is not usable; construct with New.
type Server struct {
	reg      *service.Registry
	defaults service.Spec
	pprof    bool
	state    atomic.Int32 // StateStarting → StateReady → StateDraining
}

// New builds a Server in the Starting state.
func New(cfg Config) *Server {
	return &Server{reg: cfg.Registry, defaults: cfg.Defaults, pprof: cfg.Pprof}
}

// SetReady marks the server ready (true) or back to starting (false).
func (s *Server) SetReady(ready bool) {
	if ready {
		s.state.Store(StateReady)
	} else {
		s.state.Store(StateStarting)
	}
}

// SetDraining marks the server draining: /readyz fails so the router
// stops routing new sessions here and migrates existing ones away.
func (s *Server) SetDraining() { s.state.Store(StateDraining) }

// Draining reports whether SetDraining has been called.
func (s *Server) Draining() bool { return s.state.Load() == StateDraining }

// Handler returns the server's routing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("POST /api/session", s.handleCreate)
	mux.HandleFunc("GET /api/sessions", s.handleList)
	mux.HandleFunc("GET /api/session/{id}/state", s.handleState)
	mux.HandleFunc("POST /api/session/{id}/view", s.handleAddView)
	mux.HandleFunc("GET /api/session/{id}/view/{v}/chart", s.handleViewChart)
	mux.HandleFunc("POST /api/session/{id}/iterate", s.handleIterate)
	mux.HandleFunc("POST /api/session/{id}/answer", s.handleAnswer)
	mux.HandleFunc("POST /api/session/{id}/export", s.handleExport)
	mux.HandleFunc("POST /api/session/import", s.handleImport)
	mux.HandleFunc("DELETE /api/session/{id}", s.handleClose)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.pprof {
		mountPprof(mux)
	}
	return mux
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 "ok" only once RestoreAll
// has completed (SetReady) and shutdown has not begun. The body names
// the state so the router can distinguish a starting shard (will become
// ready; leave it in peace) from a draining one (migrate sessions off).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch s.state.Load() {
	case StateReady:
		_, _ = io.WriteString(w, "ok\n")
	case StateDraining:
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
	default:
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "starting\n")
	}
}

// retryAfter derives the Retry-After hint from the worker pool's queue:
// one second of headroom plus roughly how many "turns" of the pool the
// queued work represents, clamped to [1, 30]. An idle pool answers 1; a
// deeply backed-up one tells clients to stay away longer instead of
// hammering a fixed two-second cadence.
func (s *Server) retryAfter() string {
	queued, _, workers := s.reg.QueueStats()
	if workers < 1 {
		workers = 1
	}
	secs := 1 + queued/workers
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// writeServiceError maps registry sentinel errors to HTTP statuses.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, service.ErrBusy), errors.Is(err, service.ErrOverloaded):
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, service.ErrIterationRunning), errors.Is(err, service.ErrNoQuestion),
		errors.Is(err, service.ErrExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, service.ErrClosed):
		http.Error(w, err.Error(), http.StatusGone)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleCreate builds a new session. The optional JSON body overrides
// the server's default spec field by field; an "id" field pins the
// session id (the cluster router pre-assigns ids so consistent-hash
// placement is decided before the shard is picked) and fails with 409
// if it is already taken.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	var body struct {
		ID       string   `json:"id"`
		Dataset  string   `json:"dataset"`
		Scale    float64  `json:"scale"`
		Seed     int64    `json:"seed"`
		Query    string   `json:"query"`
		Queries  []string `json:"queries"`
		K        int      `json:"k"`
		Selector string   `json:"selector"`
		Auto     *bool    `json:"auto"`
	}
	if data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if len(data) > 0 {
		if err := json.Unmarshal(data, &body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	spec := s.defaults
	if body.Dataset != "" && body.Dataset != spec.Dataset {
		spec.Dataset = body.Dataset
		spec.Query = "" // the flag query targets the flag dataset
	}
	if body.Scale != 0 {
		spec.Scale = body.Scale
	}
	if body.Seed != 0 {
		spec.Seed = body.Seed
	}
	if body.Query != "" {
		spec.Query = body.Query
	}
	if len(body.Queries) > 0 {
		spec.Queries = body.Queries
	}
	if body.K != 0 {
		spec.K = body.K
	}
	if body.Selector != "" {
		spec.Selector = body.Selector
	}
	if body.Auto != nil {
		spec.Auto = *body.Auto
	}
	var id string
	var err error
	if body.ID != "" {
		id, err = s.reg.CreateWithID(body.ID, spec)
	} else {
		id, err = s.reg.Create(spec)
	}
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

type stateResponse struct {
	ID        string    `json:"id"`
	Query     string    `json:"query"`
	Iteration int       `json:"iteration"`
	Running   bool      `json:"running"`
	Chart     chartJSON `json:"chart"`
	// Views carries every registered view's query and chart in
	// registration order; views[0] duplicates query/chart above (kept for
	// single-view clients).
	Views    []viewJSON        `json:"views,omitempty"`
	Truth    float64           `json:"distToTruth"`
	Question *service.Question `json:"question,omitempty"`
	CQG      *service.CQGView  `json:"cqg,omitempty"`
	Report   *repJSON          `json:"lastReport,omitempty"`
	Error    string            `json:"error,omitempty"`
}

type viewJSON struct {
	Query string    `json:"query"`
	Chart chartJSON `json:"chart"`
}

type chartJSON struct {
	Type   string    `json:"type"`
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

type repJSON struct {
	Questions int     `json:"questions"`
	Moved     float64 `json:"moved"`
	Exhausted bool    `json:"exhausted"`
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	st, err := s.reg.State(r.PathValue("id"))
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	resp := stateResponse{
		ID:        st.ID,
		Query:     st.Spec.Query,
		Iteration: st.Iteration,
		Running:   st.Running,
		Truth:     st.DistToTruth,
		Question:  st.Question,
		CQG:       st.CQG,
		Error:     st.Err,
	}
	if st.Vis != nil {
		resp.Chart = toChartJSON(st.Vis)
	}
	for i, v := range st.ViewVis {
		vj := viewJSON{Chart: toChartJSON(v)}
		if i < len(st.ViewQueries) {
			vj.Query = st.ViewQueries[i]
		}
		resp.Views = append(resp.Views, vj)
	}
	if st.Report != nil {
		resp.Report = &repJSON{
			Questions: st.Report.Questions(),
			Moved:     st.Report.DistMoved,
			Exhausted: st.Report.Exhausted,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAddView registers an additional VQL view on a live session
// (body: {"query": "VISUALIZE ..."}). The view is logged into the
// session's answer history, so snapshots and replay restore it.
func (s *Server) handleAddView(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Query string `json:"query"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if body.Query == "" {
		http.Error(w, "missing query", http.StatusBadRequest)
		return
	}
	v, err := s.reg.AddView(r.PathValue("id"), body.Query)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"view": v})
}

// handleViewChart serves one view's current chart by view index. An
// unknown session is 404; a malformed or out-of-range index is 400, not
// 404, because the cluster router reads a 404 as "the session is not on
// this shard" and would scan on, restoring a live session on a second
// shard.
func (s *Server) handleViewChart(w http.ResponseWriter, r *http.Request) {
	st, err := s.reg.State(r.PathValue("id"))
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil || v < 0 || v >= len(st.ViewVis) {
		http.Error(w, "no such view", http.StatusBadRequest)
		return
	}
	vj := viewJSON{Chart: toChartJSON(st.ViewVis[v])}
	if v < len(st.ViewQueries) {
		vj.Query = st.ViewQueries[v]
	}
	writeJSON(w, http.StatusOK, vj)
}

func (s *Server) handleIterate(w http.ResponseWriter, r *http.Request) {
	// The router stamps X-Request-ID on proxied requests; folding it into
	// the iteration's trace label lets one request be followed from the
	// router access log into /debug/traces on the shard.
	if err := s.reg.Iterate(r.PathValue("id"), r.Header.Get("X-Request-ID")); err != nil {
		s.writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Yes   *bool    `json:"yes"`
		Value *float64 `json:"value"`
		Skip  bool     `json:"skip"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a := service.Answer{Skip: body.Skip}
	if body.Yes != nil {
		a.Yes = *body.Yes
	}
	if body.Value != nil {
		a.Value = *body.Value
		a.HasValue = true
	}
	if err := s.reg.Answer(r.PathValue("id"), a); err != nil {
		s.writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleExport detaches a session and returns its snapshot — the first
// half of a migration. The session is gone from this shard afterwards
// (modulo its inert on-disk copy; see service.Detach).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	snap, err := s.reg.Detach(r.PathValue("id"))
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleImport rebuilds a session from a snapshot body — the second
// half of a migration. 409 if the id already lives here.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var snap service.Snapshot
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&snap); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.reg.Attach(snap); err != nil {
		s.writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Close(r.PathValue("id")); err != nil {
		s.writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func toChartJSON(v *vis.Data) chartJSON {
	out := chartJSON{Type: v.Type.String()}
	for _, p := range v.Points {
		out.Labels = append(out.Labels, p.Label)
		out.Values = append(out.Values, p.Y)
	}
	return out
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
