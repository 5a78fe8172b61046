package web

import (
	"fmt"
	"net/http"
	"testing"

	"visclean/internal/artifact"
	"visclean/internal/pipeline"
	"visclean/internal/service"
)

// FuzzImport posts arbitrary bytes to POST /api/session/import, the
// migration import body, on a fresh registry per input. The import is
// the same rebuild path a lazy restore takes (factory, then replay of
// the answer log), so this also covers restore's replay. The property:
// no panic, and the status is one the import documents (204, 400, 409,
// 410 or 503). A refusal leaves no session behind, and closing an
// imported session releases every artifact-cache handle it took.
//
// The factory refuses scales above 0.004, so the fuzzer spends its time
// on the envelope and the answer log rather than on building large
// tables; scales at or below 0 still reach the standard factory's own
// refusal.
func FuzzImport(f *testing.F) {
	cache := artifact.New(16 << 20)
	build := service.CachedFactory(cache)
	factory := func(spec service.Spec) (*pipeline.Session, pipeline.User, error) {
		if spec.Scale > 0.004 {
			return nil, nil, fmt.Errorf("fuzz: scale %g above 0.004", spec.Scale)
		}
		return build(spec)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reg := service.NewRegistry(service.Config{
			MaxSessions: 2,
			Workers:     1,
			Factory:     factory,
			Logf:        func(string, ...any) {},
		})
		defer reg.Shutdown()
		srv := New(Config{Registry: reg})
		srv.SetReady(true)
		rec := doReq(t, srv.Handler(), http.MethodPost, "/api/session/import", string(body))
		switch rec.Code {
		case http.StatusNoContent:
			infos := reg.List()
			if len(infos) != 1 {
				t.Fatalf("import answered 204 but %d sessions are live", len(infos))
			}
			if err := reg.Close(infos[0].ID); err != nil {
				t.Fatalf("close imported session: %v", err)
			}
			if st := cache.Stats(); st.Idle != st.Entries {
				t.Fatalf("closed imported session still holds %d of %d artifact-cache entries",
					st.Entries-st.Idle, st.Entries)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusGone, http.StatusServiceUnavailable:
			if n := reg.Len(); n != 0 {
				t.Fatalf("import refused with %d but left %d live sessions", rec.Code, n)
			}
		default:
			t.Fatalf("import status %d: %s", rec.Code, rec.Body.String())
		}
	})
}
