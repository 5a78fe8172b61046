package web

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visclean/internal/service"
)

// testShell builds a Server over a real registry with small default
// sessions (D1 at scale 0.004, ~55 entities).
func testShell(t *testing.T, auto bool) (http.Handler, *service.Registry) {
	t.Helper()
	reg := service.NewRegistry(service.Config{
		MaxSessions: 8,
		Workers:     2,
		Logf:        t.Logf,
	})
	t.Cleanup(reg.Shutdown)
	srv := New(Config{
		Registry: reg,
		Defaults: service.Spec{Dataset: "D1", Scale: 0.004, Seed: 3, Auto: auto},
	})
	srv.SetReady(true)
	return srv.Handler(), reg
}

func doReq(t *testing.T, mux http.Handler, method, path, body string) *httptest.ResponseRecorder {
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

func createSession(t *testing.T, mux http.Handler) string {
	t.Helper()
	rec := doReq(t, mux, http.MethodPost, "/api/session", "{}")
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("create returned empty session id")
	}
	return out.ID
}

func getState(t *testing.T, mux http.Handler, id string) stateResponse {
	t.Helper()
	rec := doReq(t, mux, http.MethodGet, "/api/session/"+id+"/state", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("state status %d: %s", rec.Code, rec.Body.String())
	}
	var out stateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCreateAndState(t *testing.T) {
	mux, _ := testShell(t, false)
	id := createSession(t, mux)
	s := getState(t, mux, id)
	if s.ID != id || s.Iteration != 0 || s.Running {
		t.Fatalf("fresh state = %+v", s)
	}
	if len(s.Chart.Labels) == 0 {
		t.Fatal("no chart in initial state")
	}
	if s.Truth <= 0 {
		t.Fatal("dist to truth missing")
	}
	if s.Query == "" {
		t.Fatal("query missing from state")
	}
}

func TestAutoIteration(t *testing.T) {
	mux, _ := testShell(t, true)
	id := createSession(t, mux)
	rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/iterate", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("iterate status %d", rec.Code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s := getState(t, mux, id); !s.Running {
			if s.Iteration != 1 {
				t.Fatalf("iteration = %d after auto run", s.Iteration)
			}
			if s.Report == nil || s.Report.Questions == 0 {
				t.Fatalf("report missing: %+v", s.Report)
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("auto iteration never finished")
}

func TestIterateConflictWhileRunning(t *testing.T) {
	mux, _ := testShell(t, false) // web user: iteration parks on questions
	id := createSession(t, mux)
	rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/iterate", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("iterate status %d", rec.Code)
	}
	rec2 := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/iterate", "")
	if rec2.Code != http.StatusConflict {
		t.Fatalf("second iterate status %d, want conflict", rec2.Code)
	}
	// Skip every question until the iteration ends so nothing leaks.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s := getState(t, mux, id)
		if !s.Running {
			return
		}
		if s.Question != nil {
			rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/answer", `{"skip":true}`)
			if rec.Code != http.StatusNoContent && rec.Code != http.StatusConflict {
				t.Fatalf("answer status %d", rec.Code)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("iteration never finished under skip-all answers")
}

func TestAnswerWithoutQuestion(t *testing.T) {
	mux, _ := testShell(t, false)
	id := createSession(t, mux)
	rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/answer", `{"yes":true}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("answer with no question: status %d", rec.Code)
	}
}

// TestAnswerBadJSON posts malformed and oversized bodies to a session
// that waits on a question: each is refused with a 400 and leaves the
// question pending, so a valid answer still goes through afterwards. The
// oversized body is a well-formed skip padded past the 1 MiB cap, which
// an unbounded decoder would accept.
func TestAnswerBadJSON(t *testing.T) {
	mux, _ := testShell(t, false) // web user: iteration parks on questions
	id := createSession(t, mux)
	if rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/iterate", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("iterate status %d", rec.Code)
	}
	waitQuestion := func() bool {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			s := getState(t, mux, id)
			if !s.Running {
				return false
			}
			if s.Question != nil {
				return true
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatal("no question within 30 s")
		return false
	}
	if !waitQuestion() {
		t.Fatal("iteration ended without asking a question")
	}
	oversized := `{"skip":true,"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	for name, body := range map[string]string{"bad json": `{`, "oversized": oversized} {
		rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/answer", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, rec.Code)
		}
	}
	if rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/answer", `{"skip":true}`); rec.Code != http.StatusNoContent {
		t.Fatalf("valid answer after refused ones: status %d", rec.Code)
	}
	// Skip the rest so the iteration ends and nothing leaks.
	for waitQuestion() {
		rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/answer", `{"skip":true}`)
		if rec.Code != http.StatusNoContent && rec.Code != http.StatusConflict {
			t.Fatalf("answer status %d", rec.Code)
		}
	}
}

func TestUnknownSession(t *testing.T) {
	mux, _ := testShell(t, false)
	rec := doReq(t, mux, http.MethodGet, "/api/session/nope/state", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown session state status %d", rec.Code)
	}
	rec = doReq(t, mux, http.MethodPost, "/api/session/nope/iterate", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown session iterate status %d", rec.Code)
	}
}

func TestCloseSession(t *testing.T) {
	mux, reg := testShell(t, false)
	id := createSession(t, mux)
	rec := doReq(t, mux, http.MethodDelete, "/api/session/"+id, "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("close status %d", rec.Code)
	}
	rec = doReq(t, mux, http.MethodGet, "/api/session/"+id+"/state", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("state after close status %d", rec.Code)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry still holds %d sessions after close", reg.Len())
	}
}

func TestCreateOverridesSpec(t *testing.T) {
	mux, reg := testShell(t, false)
	rec := doReq(t, mux, http.MethodPost, "/api/session", `{"seed": 7, "k": 5}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body.String())
	}
	infos := reg.List()
	if len(infos) != 1 || infos[0].Spec.Seed != 7 || infos[0].Spec.K != 5 {
		t.Fatalf("spec overrides not applied: %+v", infos)
	}
}

// TestCreateRejectsScaleOutOfRange: a create body's scale must lie in
// (0, 1]. The generator takes a negative scale as the paper's full size
// and a large one as a table far past it; the default factory refuses
// both before it generates anything.
func TestCreateRejectsScaleOutOfRange(t *testing.T) {
	mux, reg := testShell(t, false)
	for _, body := range []string{`{"scale": -1}`, `{"scale": 2}`} {
		if rec := doReq(t, mux, http.MethodPost, "/api/session", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("create %s: status %d, want 400: %s", body, rec.Code, rec.Body.String())
		}
	}
	if n := reg.Len(); n != 0 {
		t.Fatalf("registry holds %d sessions after the refused creates", n)
	}
}

func TestSessionCapacity(t *testing.T) {
	reg := service.NewRegistry(service.Config{MaxSessions: 1, Workers: 1, Logf: t.Logf})
	t.Cleanup(reg.Shutdown)
	mux := New(Config{
		Registry: reg,
		Defaults: service.Spec{Dataset: "D1", Scale: 0.004, Seed: 3},
	}).Handler()
	createSession(t, mux)
	rec := doReq(t, mux, http.MethodPost, "/api/session", "{}")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("create beyond capacity: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("busy rejection missing Retry-After")
	}
}

func TestIndexServesPage(t *testing.T) {
	mux, _ := testShell(t, false)
	rec := doReq(t, mux, http.MethodGet, "/", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "VisClean") {
		t.Fatalf("index page wrong: %d", rec.Code)
	}
}
