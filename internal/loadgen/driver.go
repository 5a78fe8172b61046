package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"visclean/internal/dataset"
	"visclean/internal/oracle"
)

// StateJSON mirrors the shard state response (internal/web
// stateResponse) — the fields a machine client needs.
type StateJSON struct {
	ID        string `json:"id"`
	Iteration int    `json:"iteration"`
	Running   bool   `json:"running"`
	Chart     struct {
		Labels []string  `json:"labels"`
		Values []float64 `json:"values"`
	} `json:"chart"`
	Truth    float64       `json:"distToTruth"`
	Question *QuestionJSON `json:"question"`
	Error    string        `json:"error"`
}

// QuestionJSON mirrors service.Question's wire form.
type QuestionJSON struct {
	ID      int     `json:"id"`
	Kind    string  `json:"kind"`
	Column  string  `json:"column"`
	V1      string  `json:"v1"`
	V2      string  `json:"v2"`
	Current float64 `json:"current"`
	TupleA  int     `json:"tupleA"`
	TupleB  int     `json:"tupleB"`
}

// AnswerJSON is the POST /api/session/{id}/answer body.
type AnswerJSON struct {
	Yes   *bool    `json:"yes,omitempty"`
	Value *float64 `json:"value,omitempty"`
	Skip  bool     `json:"skip,omitempty"`
}

// Fingerprint reduces a state to a bit-exact string over the chart and
// distance-to-truth: labels verbatim, floats via Float64bits, so two
// states agree iff their visible cleaning result is identical to the
// last bit. JSON float64 round-trips exactly in Go, which is what
// makes an HTTP-level fingerprint sound for the chaos tests'
// acked-answers-survive assertions.
func (st *StateJSON) Fingerprint() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "d=%016x", math.Float64bits(st.Truth))
	for i, l := range st.Chart.Labels {
		fmt.Fprintf(&b, "|%s=%016x", l, math.Float64bits(st.Chart.Values[i]))
	}
	return b.String()
}

// Policy answers questions from client-side ground truth, mirroring
// the in-process auto-oracle.
type Policy struct {
	o *oracle.Oracle
}

// NewPolicy builds a perfect-expert policy (Completeness 1, no lies):
// with zero noise the oracle never consults its RNG, so one policy is
// safe to share across goroutines and deterministic per question.
func NewPolicy(truth *oracle.GroundTruth, seed int64) *Policy {
	return &Policy{o: oracle.New(truth, seed)}
}

// Answer resolves one question into its wire answer.
func (p *Policy) Answer(q *QuestionJSON) AnswerJSON {
	yes := func(v bool) AnswerJSON { return AnswerJSON{Yes: &v} }
	switch q.Kind {
	case "T":
		match, ok := p.o.AnswerT(dataset.TupleID(q.TupleA), dataset.TupleID(q.TupleB))
		if !ok {
			return AnswerJSON{Skip: true}
		}
		return yes(match)
	case "A":
		same, ok := p.o.AnswerA(q.Column, q.V1, q.V2)
		if !ok {
			return AnswerJSON{Skip: true}
		}
		return yes(same)
	case "M":
		v, ok := p.o.AnswerM(q.Column, dataset.TupleID(q.TupleA))
		if !ok {
			return AnswerJSON{Skip: true}
		}
		return AnswerJSON{Value: &v}
	case "O":
		isOut, v, ok := p.o.AnswerO(q.Column, dataset.TupleID(q.TupleA), q.Current)
		if !ok {
			return AnswerJSON{Skip: true}
		}
		a := yes(isOut)
		if isOut {
			a.Value = &v
		}
		return a
	default:
		return AnswerJSON{Skip: true}
	}
}

// Driver runs one session end to end: create, then Iters full
// iterations with every question answered by the policy.
type Driver struct {
	Client *http.Client
	Base   string
	Spec   SpecJSON
	Policy *Policy
	Iters  int
	Stats  *Stats
	// Tolerant keeps retrying on transient failures (503 backpressure,
	// 404/410 during a failover-restore window, connection errors) —
	// storm mode. Without it the first unexpected status is fatal.
	Tolerant bool
	// PollEvery is the state poll interval (default 10ms).
	PollEvery time.Duration
	// Deadline bounds the whole session (default 5m).
	Deadline time.Duration

	// Boundaries records the state fingerprint observed at each
	// completed iteration count (0 = after creation). The chaos tests
	// compare these against a fault-free reference run: determinism
	// means boundary i of any run must equal boundary i of every other
	// run of the same spec.
	Boundaries map[int]string
	// FinalState is the last state observed.
	FinalState StateJSON
}

// post sends a JSON POST and returns status and body.
func (d *Driver) post(path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(http.MethodPost, d.Base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// getState polls the session state.
func (d *Driver) getState(id string) (StateJSON, int, error) {
	resp, err := d.Client.Get(d.Base + "/api/session/" + id + "/state")
	if err != nil {
		return StateJSON{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return StateJSON{}, 0, err
	}
	var st StateJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			return StateJSON{}, resp.StatusCode, err
		}
	}
	return st, resp.StatusCode, nil
}

// backoff maps a retry attempt to a sleep, capped so a storm of
// drivers neither stampedes the shards nor stalls forever.
func backoff(attempt int) time.Duration {
	d := time.Duration(attempt) * 25 * time.Millisecond
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	if d < 25*time.Millisecond {
		d = 25 * time.Millisecond
	}
	return d
}

// Run drives the session to completion.
func (d *Driver) Run() error {
	if d.PollEvery <= 0 {
		d.PollEvery = 10 * time.Millisecond
	}
	if d.Deadline <= 0 {
		d.Deadline = 5 * time.Minute
	}
	deadline := time.Now().Add(d.Deadline)

	if d.Boundaries == nil {
		d.Boundaries = make(map[int]string)
	}
	id, err := d.create(deadline)
	if err != nil {
		return err
	}

	// Record the creation-boundary fingerprint (best effort: a kill
	// window here just means boundary 0 goes unasserted).
	st, code, err := d.getState(id)
	if err == nil && code == http.StatusOK {
		d.Boundaries[st.Iteration] = st.Fingerprint()
		d.FinalState = st
	}

	completed := 0
	for completed < d.Iters {
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline exceeded at iteration %d/%d", completed, d.Iters)
		}
		if err := d.startIteration(id, deadline); err != nil {
			return err
		}
		st, err := d.driveIteration(id, completed, deadline)
		if err != nil {
			return err
		}
		completed = st.Iteration
		d.Boundaries[st.Iteration] = st.Fingerprint()
		d.FinalState = st
	}
	return nil
}

// create creates the session, retrying through backpressure.
func (d *Driver) create(deadline time.Time) (string, error) {
	for attempt := 0; ; attempt++ {
		code, body, err := d.post("/api/session", d.Spec)
		if err == nil && code == http.StatusCreated {
			var out struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				return "", err
			}
			d.Stats.created()
			return out.ID, nil
		}
		if err == nil && code == http.StatusConflict && d.Spec.ID != "" {
			// The id already exists — a previous attempt half-succeeded
			// (e.g. the create landed but its response was lost to a shard
			// kill). Adopt the session.
			d.Stats.created()
			return d.Spec.ID, nil
		}
		transient := err != nil || code == http.StatusServiceUnavailable || code >= 500
		if code == http.StatusServiceUnavailable {
			d.Stats.reject()
		}
		if !d.Tolerant || !transient || time.Now().After(deadline) {
			if err != nil {
				return "", fmt.Errorf("create: %w", err)
			}
			return "", fmt.Errorf("create: status %d: %s", code, string(body))
		}
		d.Stats.retry()
		time.Sleep(backoff(attempt))
	}
}

// startIteration schedules an iteration, absorbing transient refusals:
// 503 (queue full) backs off, 409 (already running — a previous
// attempt landed) proceeds to driving, 404/410 retries through the
// failover-restore window.
func (d *Driver) startIteration(id string, deadline time.Time) error {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		code, body, err := d.post("/api/session/"+id+"/iterate", nil)
		switch {
		case err == nil && code == http.StatusAccepted:
			d.Stats.iterateLatency(time.Since(start))
			return nil
		case err == nil && code == http.StatusConflict:
			return nil // already running: drive it
		case err == nil && code == http.StatusServiceUnavailable:
			d.Stats.reject()
		case err == nil && (code == http.StatusNotFound || code == http.StatusGone):
			// Failover window: the new owner hasn't restored it yet.
		case err == nil && code < 500:
			return fmt.Errorf("iterate: status %d: %s", code, string(body))
		}
		if !d.Tolerant && (err != nil || code != http.StatusServiceUnavailable) {
			if err != nil {
				return fmt.Errorf("iterate: %w", err)
			}
			return fmt.Errorf("iterate: status %d", code)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("iterate: deadline exceeded (last status %d, err %v)", code, err)
		}
		d.Stats.retry()
		time.Sleep(backoff(attempt))
	}
}

// driveIteration polls the session, answering every question, until
// the iteration count passes prev. A session that comes back from a
// shard kill mid-iteration is NOT running (restores land at the last
// boundary), so the poll loop also re-schedules the iteration when it
// finds the session idle at the old count.
func (d *Driver) driveIteration(id string, prev int, deadline time.Time) (StateJSON, error) {
	misses := 0
	for {
		if time.Now().After(deadline) {
			return StateJSON{}, fmt.Errorf("iteration %d: deadline exceeded", prev+1)
		}
		st, code, err := d.getState(id)
		switch {
		case err != nil:
			if !d.Tolerant {
				return StateJSON{}, err
			}
			d.Stats.retry()
			time.Sleep(backoff(misses))
			misses++
			continue
		case code == http.StatusNotFound || code == http.StatusGone:
			// Failover-restore window, or the kill landed between create
			// and first persist. Keep knocking; the ring successor will
			// restore it.
			if !d.Tolerant {
				return StateJSON{}, fmt.Errorf("state: status %d", code)
			}
			d.Stats.retry()
			time.Sleep(backoff(misses))
			misses++
			continue
		case code != http.StatusOK:
			if !d.Tolerant {
				return StateJSON{}, fmt.Errorf("state: status %d", code)
			}
			d.Stats.retry()
			time.Sleep(backoff(misses))
			misses++
			continue
		}
		misses = 0
		if st.Iteration > prev {
			return st, nil
		}
		if st.Question != nil {
			a := d.Policy.Answer(st.Question)
			ansStart := time.Now()
			code, _, err := d.post("/api/session/"+id+"/answer", a)
			if err == nil && code == http.StatusNoContent {
				d.Stats.answerLatency(time.Since(ansStart))
			} else if err == nil && code == http.StatusConflict {
				// The question resolved under us (timeout or a retried
				// answer landed twice) — poll again.
			} else if !d.Tolerant {
				return StateJSON{}, fmt.Errorf("answer: status %d err %v", code, err)
			} else {
				d.Stats.retry()
			}
			continue // answers usually unlock the next question immediately
		}
		if !st.Running {
			// Idle at the old count: a restore rewound to the boundary, or
			// the iterate never stuck. Re-schedule.
			if err := d.startIteration(id, deadline); err != nil {
				return StateJSON{}, err
			}
		}
		time.Sleep(d.PollEvery)
	}
}

// Close closes the session on the server (used by tests; load runs
// leave sessions for the placement scrape).
func (d *Driver) Close(id string) {
	req, err := http.NewRequest(http.MethodDelete, d.Base+"/api/session/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := d.Client.Do(req); err == nil {
		resp.Body.Close()
	}
}
