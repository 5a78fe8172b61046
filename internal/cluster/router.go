package cluster

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Config parameterizes a Router.
type Config struct {
	// Shards are the backend base URLs, e.g. "http://127.0.0.1:8081"
	// (required, static membership: shards may die and rejoin but the
	// candidate set is fixed at construction).
	Shards []string
	// Replicas is the virtual nodes per shard on the ring (default 64).
	Replicas int
	// HealthInterval is the /readyz probe period (default 1s). Negative
	// disables the background loop entirely; tests then drive
	// CheckHealth and Rebalance by hand for determinism.
	HealthInterval time.Duration
	// RebalanceInterval is the periodic rebalance period (default 5s);
	// a rebalance also runs immediately after any health transition.
	RebalanceInterval time.Duration
	// Client is the HTTP client for proxying and probing (default: 30s
	// timeout).
	Client *http.Client
	// Logf receives operational log lines (default: drop).
	Logf func(format string, args ...any)
	// NewID generates session ids for creates that don't pin one
	// (default: 16 hex chars of crypto/rand). Tests inject sequential
	// ids so session→shard placement is deterministic.
	NewID func() string
}

// Router is the cluster front door: a consistent-hash reverse proxy
// over N viscleanweb shards. It routes each session's requests to the
// shard owning its id, fails over to successor shards when the owner
// dies (sessions restore from the shared snapshot directory), and
// migrates sessions between shards on membership changes.
type Router struct {
	cfg    Config
	client *http.Client
	shards []*shard
	byName map[string]*shard

	mu     sync.Mutex
	ring   *Ring
	sticky map[string]string // session id → shard name, overrides the ring

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a router, probes every shard once, and (unless
// HealthInterval < 0) starts the background health/rebalance loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 64
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.RebalanceInterval <= 0 {
		cfg.RebalanceInterval = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.NewID == nil {
		cfg.NewID = randomID
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		byName: make(map[string]*shard),
		sticky: make(map[string]string),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, name := range cfg.Shards {
		if _, dup := rt.byName[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %s", name)
		}
		sh := &shard{name: name}
		rt.shards = append(rt.shards, sh)
		rt.byName[name] = sh
	}
	rt.ring = NewRing(cfg.Replicas, nil)
	rt.CheckHealth()
	if cfg.HealthInterval > 0 {
		go rt.loop()
	} else {
		close(rt.done)
	}
	return rt, nil
}

func randomID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("s%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Close stops the background loop.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

func (rt *Router) loop() {
	defer close(rt.done)
	health := time.NewTicker(rt.cfg.HealthInterval)
	defer health.Stop()
	rebalance := time.NewTicker(rt.cfg.RebalanceInterval)
	defer rebalance.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-health.C:
			if rt.checkHealth() {
				rt.Rebalance()
			}
		case <-rebalance.C:
			rt.Rebalance()
		}
	}
}

// CheckHealth probes every shard once and reports whether any state
// changed. Exported so tests (and the smoke harness) can drive the
// health machine deterministically with the background loop disabled.
func (rt *Router) CheckHealth() bool { return rt.checkHealth() }

// Handler returns the router's routing mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", rt.handleIndex)
	mux.HandleFunc("POST /api/session", rt.handleCreate)
	mux.HandleFunc("GET /api/sessions", rt.handleList)
	mux.HandleFunc("GET /api/session/{id}/state", rt.handleSession)
	mux.HandleFunc("POST /api/session/{id}/view", rt.handleSession)
	mux.HandleFunc("GET /api/session/{id}/view/{v}/chart", rt.handleSession)
	mux.HandleFunc("POST /api/session/{id}/iterate", rt.handleSession)
	mux.HandleFunc("POST /api/session/{id}/answer", rt.handleSession)
	mux.HandleFunc("DELETE /api/session/{id}", rt.handleSession)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /cluster/state", rt.handleClusterState)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// result is one buffered backend response.
type result struct {
	status int
	header http.Header
	body   []byte
}

// do sends one buffered request to a shard and buffers the response,
// so a failed attempt can be retried against the next candidate and a
// 404 kept aside while the scan continues.
func (rt *Router) do(sh *shard, method, path, rid string, body []byte) (*result, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, sh.name+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &result{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

func (rt *Router) relay(w http.ResponseWriter, res *result, rid string) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if rid != "" {
		w.Header().Set("X-Request-ID", rid)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// requestID returns the inbound X-Request-ID or mints one, so every
// proxied request is traceable end to end (the shard folds the id into
// its iteration trace labels).
func (rt *Router) requestID(r *http.Request) string {
	if rid := r.Header.Get("X-Request-ID"); rid != "" {
		return rid
	}
	return randomID()
}

// candidates returns the shards to try for a session id, in order:
// the sticky owner (authoritative after a migration or a successful
// request), then the ring owners, then any draining shards still
// serving their old sessions. Only live-ish shards (ready or draining)
// are returned.
func (rt *Router) candidates(id string) []*shard {
	rt.mu.Lock()
	stickyName, hasSticky := rt.sticky[id]
	ringOwners := rt.ring.Owners(id, len(rt.shards))
	rt.mu.Unlock()

	var out []*shard
	seen := make(map[string]bool)
	add := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		sh := rt.byName[name]
		if sh == nil {
			return
		}
		if st := sh.State(); st == ShardReady || st == ShardDraining {
			out = append(out, sh)
		}
	}
	if hasSticky {
		add(stickyName)
	}
	for _, name := range ringOwners {
		add(name)
	}
	for _, sh := range rt.shards {
		add(sh.name)
	}
	return out
}

func (rt *Router) setSticky(id, name string) {
	rt.mu.Lock()
	rt.sticky[id] = name
	rt.mu.Unlock()
}

func (rt *Router) clearSticky(id string) {
	rt.mu.Lock()
	delete(rt.sticky, id)
	rt.mu.Unlock()
}

// handleSession proxies one per-session request to the shard owning
// the id, scanning failover candidates on connection errors (the shard
// died — mark it down and try its successor, which lazily restores the
// session from the shared snapshot directory) and on 404/410 (the
// session moved mid-rebalance; some other candidate has it). The first
// 404-class response is kept and relayed if nobody claims the session.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	id := r.PathValue("id")
	rid := rt.requestID(r)
	path := r.URL.Path
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	var miss *result
	for _, sh := range rt.candidates(id) {
		res, err := rt.do(sh, r.Method, path, rid, body)
		if err != nil {
			rt.markDown(sh)
			obsRetries.Inc()
			continue
		}
		if res.status == http.StatusNotFound || res.status == http.StatusGone {
			if miss == nil {
				miss = res
			}
			obsRetries.Inc()
			continue
		}
		if res.status < 300 {
			if r.Method == http.MethodDelete {
				rt.clearSticky(id)
			} else {
				rt.setSticky(id, sh.name)
			}
		}
		rt.relay(w, res, rid)
		return
	}
	if miss != nil {
		rt.relay(w, miss, rid)
		return
	}
	http.Error(w, "cluster: no shard available for session "+id, http.StatusBadGateway)
}

// handleCreate assigns the session id HERE — before any shard is
// contacted — so consistent-hash placement is decided by the router,
// then creates the session on the id's owner (falling through to ring
// successors when the owner is at capacity or dies mid-create). A
// client-pinned "id" in the body is honored.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	rid := rt.requestID(r)
	var spec map[string]any
	if data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if len(data) > 0 {
		if err := json.Unmarshal(data, &spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if spec == nil {
		spec = make(map[string]any)
	}
	id, _ := spec["id"].(string)
	if id == "" {
		id = rt.cfg.NewID()
		spec["id"] = id
	}
	body, err := json.Marshal(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	rt.mu.Lock()
	owners := rt.ring.Owners(id, len(rt.shards))
	rt.mu.Unlock()
	var last *result
	for _, name := range owners {
		sh := rt.byName[name]
		if sh == nil || sh.State() != ShardReady {
			continue
		}
		res, err := rt.do(sh, http.MethodPost, "/api/session", rid, body)
		if err != nil {
			rt.markDown(sh)
			obsRetries.Inc()
			continue
		}
		last = res
		if res.status == http.StatusCreated {
			rt.setSticky(id, sh.name)
			rt.relay(w, res, rid)
			return
		}
		if res.status != http.StatusServiceUnavailable {
			// Hard error (bad spec, id conflict): successors would say
			// the same or worse — relay it.
			rt.relay(w, res, rid)
			return
		}
		obsRetries.Inc() // busy shard: spill to the next ring owner
	}
	if last != nil {
		rt.relay(w, last, rid)
		return
	}
	http.Error(w, "cluster: no ready shard", http.StatusServiceUnavailable)
}

// handleList fans GET /api/sessions out to every serving shard and
// merges the arrays.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	merged := make([]json.RawMessage, 0)
	for _, sh := range rt.shards {
		if st := sh.State(); st != ShardReady && st != ShardDraining {
			continue
		}
		res, err := rt.do(sh, http.MethodGet, "/api/sessions", "", nil)
		if err != nil {
			rt.markDown(sh)
			continue
		}
		if res.status != http.StatusOK {
			continue
		}
		var part []json.RawMessage
		if json.Unmarshal(res.body, &part) == nil {
			merged = append(merged, part...)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// handleIndex proxies the GUI page from the first ready shard.
func (rt *Router) handleIndex(w http.ResponseWriter, r *http.Request) {
	for _, sh := range rt.shards {
		if sh.State() != ShardReady {
			continue
		}
		res, err := rt.do(sh, http.MethodGet, "/", "", nil)
		if err != nil {
			rt.markDown(sh)
			continue
		}
		rt.relay(w, res, "")
		return
	}
	http.Error(w, "cluster: no ready shard", http.StatusServiceUnavailable)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz: the router is ready when at least one shard is.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, sh := range rt.shards {
		if sh.State() == ShardReady {
			_, _ = io.WriteString(w, "ok\n")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = io.WriteString(w, "no ready shards\n")
}

// ShardStatus is one shard's row in GET /cluster/state.
type ShardStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Sessions int    `json:"sessions"` // -1 when unreachable
}

// ClusterState is the GET /cluster/state document.
type ClusterState struct {
	Shards []ShardStatus `json:"shards"`
	Ring   []string      `json:"ring"`
}

// State reports shard health and per-shard session counts.
func (rt *Router) State() ClusterState {
	var cs ClusterState
	for _, sh := range rt.shards {
		row := ShardStatus{Name: sh.name, State: sh.State().String(), Sessions: -1}
		if st := sh.State(); st == ShardReady || st == ShardDraining {
			if res, err := rt.do(sh, http.MethodGet, "/api/sessions", "", nil); err == nil && res.status == http.StatusOK {
				var part []json.RawMessage
				if json.Unmarshal(res.body, &part) == nil {
					row.Sessions = len(part)
				}
			}
		}
		cs.Shards = append(cs.Shards, row)
	}
	rt.mu.Lock()
	cs.Ring = rt.ring.Nodes()
	rt.mu.Unlock()
	return cs
}

func (rt *Router) handleClusterState(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rt.State())
}
