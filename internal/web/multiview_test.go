package web

// Multi-view sessions over the HTTP API: creating with extra views,
// adding a view mid-session, and the per-view chart route.

import (
	"encoding/json"
	"net/http"
	"testing"
)

const mvSecondQuery = `VISUALIZE bar SELECT Affiliation, AVG(Citations) FROM D1 TRANSFORM GROUP BY Affiliation SORT Y BY DESC LIMIT 8`

func TestCreateWithExtraViews(t *testing.T) {
	mux, _ := testShell(t, false)
	rec := doReq(t, mux, http.MethodPost, "/api/session",
		`{"queries": [`+jsonStr(mvSecondQuery)+`]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	st := getState(t, mux, out.ID)
	if len(st.Views) != 2 {
		t.Fatalf("state has %d views, want 2", len(st.Views))
	}
	if st.Views[0].Query != st.Query {
		t.Fatalf("views[0].query %q != query %q", st.Views[0].Query, st.Query)
	}
	if st.Views[1].Query != mvSecondQuery {
		t.Fatalf("views[1].query = %q", st.Views[1].Query)
	}
	if len(st.Views[1].Chart.Labels) == 0 {
		t.Fatal("second view has no chart")
	}
}

func TestAddViewAndViewChartRoutes(t *testing.T) {
	mux, _ := testShell(t, false)
	id := createSession(t, mux)

	if rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/view", `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty-query add-view status %d", rec.Code)
	}
	if rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/view",
		`{"query": "VISUALIZE nope"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad-query add-view status %d", rec.Code)
	}

	rec := doReq(t, mux, http.MethodPost, "/api/session/"+id+"/view",
		`{"query": `+jsonStr(mvSecondQuery)+`}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add-view status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		View int `json:"view"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.View != 1 {
		t.Fatalf("add-view returned index %d, want 1", out.View)
	}
	if st := getState(t, mux, id); len(st.Views) != 2 {
		t.Fatalf("state has %d views after add, want 2", len(st.Views))
	}

	rec = doReq(t, mux, http.MethodGet, "/api/session/"+id+"/view/1/chart", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("view-chart status %d: %s", rec.Code, rec.Body.String())
	}
	var vj viewJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &vj); err != nil {
		t.Fatal(err)
	}
	if vj.Query != mvSecondQuery || len(vj.Chart.Labels) == 0 {
		t.Fatalf("view chart = %+v", vj)
	}

	for _, path := range []string{"/view/2/chart", "/view/-1/chart", "/view/x/chart"} {
		if rec := doReq(t, mux, http.MethodGet, "/api/session/"+id+path, ""); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s status %d, want 400", path, rec.Code)
		}
	}
	if rec := doReq(t, mux, http.MethodGet, "/api/session/nosuch/view/0/chart", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("view chart of an unknown session: status %d, want 404", rec.Code)
	}
}

func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
