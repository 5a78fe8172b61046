package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visclean/internal/loadgen"
	"visclean/internal/service"
	"visclean/internal/web"
)

// testShard is one in-process viscleanweb instance on a real listener.
type testShard struct {
	reg *service.Registry
	srv *web.Server
	ts  *httptest.Server
}

func newTestShard(t *testing.T, snapDir string, ready, auto bool) *testShard {
	t.Helper()
	reg := service.NewRegistry(service.Config{
		MaxSessions: 32,
		Workers:     2,
		SnapshotDir: snapDir,
		Logf:        func(string, ...any) {},
	})
	srv := web.New(web.Config{
		Registry: reg,
		Defaults: service.Spec{Dataset: "D1", Scale: 0.004, Seed: 3, Auto: auto},
	})
	if ready {
		srv.SetReady(true)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); reg.Shutdown() })
	return &testShard{reg: reg, srv: srv, ts: ts}
}

// kill simulates whole-shard death: connections drop, nothing persists
// beyond the last iteration-boundary snapshot.
func (sh *testShard) kill() {
	sh.ts.CloseClientConnections()
	sh.ts.Close()
	sh.reg.Kill()
}

// pinnedIDs returns count ids (prefix-N) that the ring places on each
// of the given owners, so tests control session→shard placement
// deterministically.
func pinnedIDs(t *testing.T, ring *Ring, prefix string, perOwner int, owners ...string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		o := ring.Owner(id)
		if len(out[o]) < perOwner {
			out[o] = append(out[o], id)
		}
		full := true
		for _, owner := range owners {
			if len(out[owner]) < perOwner {
				full = false
			}
		}
		if full {
			return out
		}
	}
	t.Fatal("could not find pinned ids for every owner")
	return nil
}

func routerReq(t *testing.T, mux http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// stateBody fetches a session's state through the router and
// canonicalizes it, dropping lastReport: the report is per-iteration
// ephemera a snapshot replay deliberately does not reconstruct, while
// everything else (chart, distance-to-truth, iteration count) must
// survive migration bit-exactly. JSON float64 round-trips exactly in
// Go, so equal canonical bodies mean bit-identical state.
func stateBody(t *testing.T, mux http.Handler, id string) string {
	t.Helper()
	rec := routerReq(t, mux, http.MethodGet, "/api/session/"+id+"/state", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("state %s: %d %s", id, rec.Code, rec.Body.String())
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "lastReport")
	out, err := json.Marshal(m) // map keys marshal sorted: canonical
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// shardHas reports whether the shard itself (not the router) serves the
// session. A shard with a snapshot directory restores on demand, so
// this also claims sessions the shard could lazily restore — tests that
// assert placement use snapDir="" shards or check the source shard 404s.
func shardHas(t *testing.T, sh *testShard, id string) bool {
	t.Helper()
	resp, err := http.Get(sh.ts.URL + "/api/session/" + id + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func waitIdleVia(t *testing.T, mux http.Handler, id string, wantIter int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			Iteration int  `json:"iteration"`
			Running   bool `json:"running"`
		}
		body := stateBody(t, mux, id)
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if !st.Running && st.Iteration >= wantIter {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s never reached iteration %d", id, wantIter)
}

// TestClusterSmoke is the short-mode cluster check (scripts/check.sh):
// two shards behind a router, deterministic placement via pinned ids,
// one full auto iteration through the proxy, delete, and the cluster
// state document.
func TestClusterSmoke(t *testing.T) {
	snapDir := t.TempDir()
	a := newTestShard(t, snapDir, true, true)
	b := newTestShard(t, snapDir, true, true)
	var seq atomic.Int64
	rt, err := New(Config{
		Shards:         []string{a.ts.URL, b.ts.URL},
		HealthInterval: -1, // tests drive health by hand
		Logf:           t.Logf,
		NewID:          func() string { return fmt.Sprintf("smoke-auto-%d", seq.Add(1)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	mux := rt.Handler()

	if rec := routerReq(t, mux, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("router readyz: %d", rec.Code)
	}

	// Two sessions per shard, placement chosen via the ring.
	rt.mu.Lock()
	ring := rt.ring
	rt.mu.Unlock()
	byOwner := pinnedIDs(t, ring, "smoke", 2, a.ts.URL, b.ts.URL)
	shardOf := map[string]*testShard{a.ts.URL: a, b.ts.URL: b}
	var all []string
	for owner, ids := range byOwner {
		for _, id := range ids {
			rec := routerReq(t, mux, http.MethodPost, "/api/session", `{"id":"`+id+`"}`)
			if rec.Code != http.StatusCreated {
				t.Fatalf("create %s: %d %s", id, rec.Code, rec.Body.String())
			}
			if rid := rec.Header().Get("X-Request-ID"); rid == "" {
				t.Fatal("router response missing X-Request-ID")
			}
			if !shardHas(t, shardOf[owner], id) {
				t.Fatalf("session %s not on its ring owner %s", id, owner)
			}
			all = append(all, id)
		}
	}

	// One full auto iteration proxied end to end.
	id := all[0]
	if rec := routerReq(t, mux, http.MethodPost, "/api/session/"+id+"/iterate", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("iterate via router: %d %s", rec.Code, rec.Body.String())
	}
	waitIdleVia(t, mux, id, 1)

	// Delete through the router.
	victim := all[len(all)-1]
	if rec := routerReq(t, mux, http.MethodDelete, "/api/session/"+victim, ""); rec.Code >= 300 {
		t.Fatalf("delete via router: %d", rec.Code)
	}
	if rec := routerReq(t, mux, http.MethodGet, "/api/session/"+victim+"/state", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted session still resolves: %d", rec.Code)
	}

	cs := rt.State()
	if len(cs.Ring) != 2 {
		t.Fatalf("ring nodes = %v, want both shards", cs.Ring)
	}
	total := 0
	for _, row := range cs.Shards {
		if row.State != "ready" {
			t.Fatalf("shard %s state %s, want ready", row.Name, row.State)
		}
		total += row.Sessions
	}
	if total != len(all)-1 {
		t.Fatalf("cluster holds %d sessions, want %d", total, len(all)-1)
	}
	if rec := routerReq(t, mux, http.MethodGet, "/metrics", ""); rec.Code != http.StatusOK {
		t.Fatalf("router metrics: %d", rec.Code)
	}
}

// TestClusterViewRoutes: the multi-view routes proxy through the
// router, and a bad view index is the owner's 400, relayed as is: were
// it a 404, the failover scan would go on to the other shard, which
// restores the session from the shared snapshot directory and leaves
// it live on both shards.
func TestClusterViewRoutes(t *testing.T) {
	snapDir := t.TempDir()
	a := newTestShard(t, snapDir, true, true)
	b := newTestShard(t, snapDir, true, true)
	rt, err := New(Config{
		Shards:         []string{a.ts.URL, b.ts.URL},
		HealthInterval: -1,
		Logf:           t.Logf,
		NewID:          func() string { return "views-1" },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	mux := rt.Handler()

	rec := routerReq(t, mux, http.MethodPost, "/api/session", "{}")
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	const id = "views-1"
	const query = `VISUALIZE bar SELECT Affiliation, AVG(Citations) FROM D1 TRANSFORM GROUP BY Affiliation SORT Y BY DESC LIMIT 8`
	body, _ := json.Marshal(map[string]string{"query": query})
	rec = routerReq(t, mux, http.MethodPost, "/api/session/"+id+"/view", string(body))
	if rec.Code != http.StatusCreated || strings.TrimSpace(rec.Body.String()) != `{"view":1}` {
		t.Fatalf("add view via router: %d %s", rec.Code, rec.Body.String())
	}
	rec = routerReq(t, mux, http.MethodGet, "/api/session/"+id+"/view/1/chart", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("view chart via router: %d %s", rec.Code, rec.Body.String())
	}
	var chart struct {
		Query string `json:"query"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chart); err != nil || chart.Query != query {
		t.Fatalf("view chart via router = %s (%v)", rec.Body.String(), err)
	}
	for _, v := range []string{"7", "x"} {
		if rec := routerReq(t, mux, http.MethodGet, "/api/session/"+id+"/view/"+v+"/chart", ""); rec.Code != http.StatusBadRequest {
			t.Fatalf("view %s chart via router: %d, want 400", v, rec.Code)
		}
	}

	live := 0
	for _, sh := range []*testShard{a, b} {
		for _, info := range sh.reg.List() {
			if info.ID == id {
				live++
			}
		}
	}
	if live != 1 {
		t.Fatalf("session %s is live on %d shards, want 1", id, live)
	}
}

// TestClusterJoinAndDrain walks a shard through the membership
// lifecycle: it joins (sessions rebalance onto it, bit-exactly), then
// the other shard drains (all sessions hand off, nothing lost).
func TestClusterJoinAndDrain(t *testing.T) {
	// No snapshot dir: placement assertions must not be satisfied by
	// lazy restore, only by actual migration.
	a := newTestShard(t, "", true, true)
	b := newTestShard(t, "", false, true) // joins later
	rt, err := New(Config{
		Shards:         []string{a.ts.URL, b.ts.URL},
		HealthInterval: -1,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	mux := rt.Handler()

	// Placement under the FUTURE two-shard ring: two ids that will stay
	// on a, two that will move to b once it joins.
	fullRing := NewRing(64, []string{a.ts.URL, b.ts.URL})
	byOwner := pinnedIDs(t, fullRing, "join", 2, a.ts.URL, b.ts.URL)
	stay, move := byOwner[a.ts.URL], byOwner[b.ts.URL]

	for _, id := range append(append([]string(nil), stay...), move...) {
		rec := routerReq(t, mux, http.MethodPost, "/api/session", `{"id":"`+id+`"}`)
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, rec.Code, rec.Body.String())
		}
		if !shardHas(t, a, id) {
			t.Fatalf("session %s not on the only ready shard", id)
		}
	}
	// Give one mover history so migration replays a non-trivial log.
	if rec := routerReq(t, mux, http.MethodPost, "/api/session/"+move[0]+"/iterate", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("iterate: %d", rec.Code)
	}
	waitIdleVia(t, mux, move[0], 1)
	before := make(map[string]string)
	for _, id := range append(append([]string(nil), stay...), move...) {
		before[id] = stateBody(t, mux, id)
	}

	// Join: b announces ready, the router rebalances b's ring slice
	// onto it.
	b.srv.SetReady(true)
	if !rt.CheckHealth() {
		t.Fatal("health probe missed the join")
	}
	if moved := rt.Rebalance(); moved != len(move) {
		t.Fatalf("join rebalance moved %d sessions, want %d", moved, len(move))
	}
	for _, id := range move {
		if !shardHas(t, b, id) || shardHas(t, a, id) {
			t.Fatalf("session %s did not hand off to the joining shard", id)
		}
	}
	for _, id := range stay {
		if !shardHas(t, a, id) {
			t.Fatalf("session %s left its owner during the join", id)
		}
	}
	for id, want := range before {
		if got := stateBody(t, mux, id); got != want {
			t.Fatalf("session %s state changed across join migration:\n was %s\n now %s", id, want, got)
		}
	}

	// Drain: a stops accepting and the router pulls its sessions off.
	a.srv.SetDraining()
	if !rt.CheckHealth() {
		t.Fatal("health probe missed the drain")
	}
	if moved := rt.Rebalance(); moved != len(stay) {
		t.Fatalf("drain rebalance moved %d sessions, want %d", moved, len(stay))
	}
	if n := a.reg.Len(); n != 0 {
		t.Fatalf("draining shard still holds %d sessions", n)
	}
	for id, want := range before {
		if !shardHas(t, b, id) {
			t.Fatalf("session %s missing from the surviving shard after drain", id)
		}
		if got := stateBody(t, mux, id); got != want {
			t.Fatalf("session %s state changed across drain handoff:\n was %s\n now %s", id, want, got)
		}
	}
	// New sessions keep flowing — to the survivor.
	rec := routerReq(t, mux, http.MethodPost, "/api/session", `{"id":"join-post-drain"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create during drain: %d %s", rec.Code, rec.Body.String())
	}
	if !shardHas(t, b, "join-post-drain") {
		t.Fatal("post-drain session not on the surviving shard")
	}
}

// TestClusterShardKillStorm is the acceptance chaos drill: interactive
// oracle-backed drivers storm a 2-shard cluster through the router, one
// shard is killed mid-storm (crash semantics — no final persists), and
// every session must finish with every recorded iteration boundary
// bit-exactly equal to a fault-free single-shard reference run. Acked
// answers survive shard death because sessions restore from the shared
// snapshot directory at their last persisted boundary and the
// deterministic drivers re-supply the lost tail.
func TestClusterShardKillStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm: not for -short")
	}
	const (
		sessions = 6
		iters    = 3
	)
	spec := loadgen.SpecJSON{Dataset: "D1", Scale: 0.004, Seed: 9, K: 4}
	truth, err := loadgen.NewTruthCache().Truth(spec.Dataset, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	policy := loadgen.NewPolicy(truth, spec.Seed)
	client := &http.Client{Timeout: 30 * time.Second}

	// Fault-free reference trajectory: one driver, one shard, no router.
	refShard := newTestShard(t, t.TempDir(), true, false)
	refSpec := spec
	refSpec.ID = "kill-ref"
	ref := &loadgen.Driver{
		Client: client, Base: refShard.ts.URL, Spec: refSpec,
		Policy: policy, Iters: iters, Stats: loadgen.NewStats(),
	}
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for i := 0; i <= iters; i++ {
		if _, ok := ref.Boundaries[i]; !ok {
			t.Fatalf("reference run missing boundary %d", i)
		}
	}

	// The storm cluster: two shards over ONE shared snapshot directory —
	// the durability substrate that makes shard death lossless.
	snapDir := t.TempDir()
	a := newTestShard(t, snapDir, true, false)
	b := newTestShard(t, snapDir, true, false)
	rt, err := New(Config{
		Shards:            []string{a.ts.URL, b.ts.URL},
		HealthInterval:    50 * time.Millisecond,
		RebalanceInterval: time.Hour, // only health-change rebalances
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	stats := loadgen.NewStats()
	drivers := make([]*loadgen.Driver, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sp := spec
		sp.ID = fmt.Sprintf("kill-%02d", i)
		drivers[i] = &loadgen.Driver{
			Client: client, Base: router.URL, Spec: sp,
			Policy: policy, Iters: iters, Stats: stats,
			Tolerant: true, Deadline: 3 * time.Minute,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = drivers[i].Run()
		}(i)
	}

	// Kill shard a once the storm has acked real answers, so the crash
	// lands mid-flight for several sessions.
	killAt := time.Now().Add(60 * time.Second)
	for stats.Answered() < sessions {
		if time.Now().After(killAt) {
			t.Fatal("storm never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("killing shard %s after %d acked answers", a.ts.URL, stats.Answered())
	a.kill()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("driver %s: %v", drivers[i].Spec.ID, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	// The invariant: every boundary any driver observed matches the
	// fault-free reference bit-exactly — acked answers survived the
	// shard death.
	for _, d := range drivers {
		for iter, fp := range d.Boundaries {
			want, ok := ref.Boundaries[iter]
			if !ok {
				t.Fatalf("%s reached boundary %d the reference never saw", d.Spec.ID, iter)
			}
			if fp != want {
				t.Errorf("%s boundary %d diverged from fault-free reference:\n got %s\nwant %s",
					d.Spec.ID, iter, fp, want)
			}
		}
		if d.FinalState.Iteration != iters {
			t.Errorf("%s finished at iteration %d, want %d", d.Spec.ID, d.FinalState.Iteration, iters)
		}
	}
	// The router must have noticed the death.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := rt.State()
		if len(cs.Ring) == 1 && cs.Ring[0] == b.ts.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never evicted the dead shard from the ring: %+v", cs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
