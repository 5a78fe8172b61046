package service

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"visclean/internal/vis"
)

// testSpec is a small, fast session: D1 at scale 0.004 is ~55 entities.
func testSpec(seed int64, auto bool) Spec {
	return Spec{Dataset: "D1", Scale: 0.004, Seed: seed, Auto: auto}
}

// newTestRegistry builds a registry whose sweeper never fires on its own
// (tests drive Sweep explicitly) and that logs through the test.
func newTestRegistry(t *testing.T, mutate func(*Config)) *Registry {
	t.Helper()
	cfg := Config{
		MaxSessions:   16,
		Workers:       4,
		SweepInterval: time.Hour,
		Logf:          t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Shutdown)
	return reg
}

// iterateRetry schedules an iteration, retrying briefly while the worker
// queue rejects with backpressure.
func iterateRetry(reg *Registry, id string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := reg.Iterate(id, "")
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitIdle polls until the session has no iteration in flight.
func waitIdle(reg *Registry, id string) (State, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := reg.State(id)
		if err != nil {
			return st, err
		}
		if !st.Running {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, errors.New("iteration never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitQuestion polls until the session parks a question.
func waitQuestion(reg *Registry, id string) (State, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := reg.State(id)
		if err != nil {
			return st, err
		}
		if st.Question != nil {
			return st, nil
		}
		if !st.Running {
			return st, errors.New("iteration finished without asking anything")
		}
		if time.Now().After(deadline) {
			return st, errors.New("no question ever parked")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentSessions is the headline multi-tenancy test: 8 client
// goroutines, each owning its own auto-answered session, progress
// independently through answered iterations over a 4-worker pool. Run
// with -race.
func TestConcurrentSessions(t *testing.T) {
	reg := newTestRegistry(t, nil)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	fail := func(err error) { errs <- err }
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := reg.Create(testSpec(int64(i+1), true))
			if err != nil {
				fail(err)
				return
			}
			for want := 1; want <= 2; want++ {
				if err := iterateRetry(reg, id); err != nil {
					fail(err)
					return
				}
				st, err := waitIdle(reg, id)
				if err != nil {
					fail(err)
					return
				}
				if st.Err != "" {
					fail(errors.New("session " + id + " iteration error: " + st.Err))
					return
				}
				if st.Report != nil && st.Report.Exhausted {
					break
				}
				if st.Iteration != want {
					fail(errors.New("session " + id + " did not advance"))
					return
				}
				if st.Report == nil || st.Report.Questions() == 0 {
					fail(errors.New("session " + id + " answered no questions"))
					return
				}
			}
			if err := reg.Close(id); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := reg.Len(); n != 0 {
		t.Fatalf("registry still holds %d sessions after all clients closed", n)
	}
}

// TestCapacityCap verifies the hard max-sessions rejection.
func TestCapacityCap(t *testing.T) {
	reg := newTestRegistry(t, func(c *Config) { c.MaxSessions = 2 })
	a, err := reg.Create(testSpec(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(testSpec(2, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(testSpec(3, false)); !errors.Is(err, ErrBusy) {
		t.Fatalf("create beyond cap: err = %v, want ErrBusy", err)
	}
	// Closing frees the slot.
	if err := reg.Close(a); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(testSpec(3, false)); err != nil {
		t.Fatalf("create after close: %v", err)
	}
}

// TestBackpressure fills the one-worker, one-slot queue: a parked
// interactive session occupies the worker, a second session's iteration
// queues, and a third is rejected with ErrOverloaded.
func TestBackpressure(t *testing.T) {
	reg := newTestRegistry(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	parked, err := reg.Create(testSpec(1, false))
	if err != nil {
		t.Fatal(err)
	}
	queuedA, err := reg.Create(testSpec(2, true))
	if err != nil {
		t.Fatal(err)
	}
	queuedB, err := reg.Create(testSpec(3, true))
	if err != nil {
		t.Fatal(err)
	}

	if err := reg.Iterate(parked, ""); err != nil {
		t.Fatal(err)
	}
	// Once a question is parked the iteration is definitely ON the
	// worker, so the queue is empty and its single slot is free.
	if _, err := waitQuestion(reg, parked); err != nil {
		t.Fatal(err)
	}
	if err := reg.Iterate(queuedA, ""); err != nil {
		t.Fatalf("queueing one iteration should succeed: %v", err)
	}
	if err := reg.Iterate(queuedB, ""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("iterate with full queue: err = %v, want ErrOverloaded", err)
	}
	// The rejected session must be schedulable again, not stuck
	// "running".
	st, err := reg.State(queuedB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Running {
		t.Fatal("rejected iteration left the session marked running")
	}

	// Drain: answer the parked session's questions as skips until its
	// iteration ends, freeing the worker for the queued one.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := reg.State(parked)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Running {
			break
		}
		if st.Question != nil {
			if err := reg.Answer(parked, Answer{Skip: true}); err != nil && !errors.Is(err, ErrNoQuestion) {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("parked iteration never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, err := waitIdle(reg, queuedA); err != nil || st.Iteration == 0 {
		t.Fatalf("queued iteration never ran: state=%+v err=%v", st, err)
	}
}

// TestAnswerTimeoutUnparks proves an abandoned client cannot wedge a
// worker: every question times out as a skip and the iteration still
// completes.
func TestAnswerTimeoutUnparks(t *testing.T) {
	reg := newTestRegistry(t, func(c *Config) {
		c.Workers = 1
		c.AnswerTimeout = 20 * time.Millisecond
	})
	id, err := reg.Create(testSpec(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Iterate(id, ""); err != nil {
		t.Fatal(err)
	}
	st, err := waitIdle(reg, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("iteration error: %s", st.Err)
	}
	if st.Report == nil || st.Report.Unanswered != st.Report.Questions() {
		t.Fatalf("expected every question to time out as unanswered, report=%+v", st.Report)
	}
	// A late answer must hit ErrNoQuestion, not a dead channel.
	if err := reg.Answer(id, Answer{Yes: true}); !errors.Is(err, ErrNoQuestion) {
		t.Fatalf("late answer: err = %v, want ErrNoQuestion", err)
	}
}

// TestEvictionUnderLoad parks an interactive session on a question, lets
// it go idle and sweeps: the evictor must snapshot it to disk, unblock
// the parked iteration (freeing the sole worker) and drop it from
// memory; a later request restores it lazily from the snapshot.
func TestEvictionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) {
		c.Workers = 1
		c.IdleTTL = 50 * time.Millisecond
		c.SnapshotDir = dir
	})
	id, err := reg.Create(testSpec(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Iterate(id, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := waitQuestion(reg, id); err != nil {
		t.Fatal(err)
	}

	// Go idle past the TTL (polling State would keep it alive).
	time.Sleep(120 * time.Millisecond)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if reg.Len() != 0 {
		t.Fatalf("evicted session still live: Len=%d", reg.Len())
	}
	if _, err := ReadSnapshotFile(reg.snapshotPath(id)); err != nil {
		t.Fatalf("eviction left no readable snapshot: %v", err)
	}

	// The sole worker must be free again: a fresh auto session completes
	// an iteration.
	other, err := reg.Create(testSpec(2, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(reg, other); err != nil {
		t.Fatal(err)
	}
	if st, err := waitIdle(reg, other); err != nil || st.Iteration == 0 {
		t.Fatalf("worker still blocked after eviction: state=%+v err=%v", st, err)
	}

	// Lazy restore: asking for the evicted id brings it back.
	st, err := reg.State(id)
	if err != nil {
		t.Fatalf("restore after eviction: %v", err)
	}
	if st.ID != id || st.Running || st.Question != nil {
		t.Fatalf("restored state = %+v", st)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len after restore = %d, want 2", reg.Len())
	}
}

// TestRestartRoundTrip is the kill/restart acceptance test: a session
// iterated under one registry is restored by a second registry pointed
// at the same snapshot directory, and its replayed state matches the
// live one — same iteration count and same distance-to-truth.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mutate := func(c *Config) { c.SnapshotDir = dir }

	reg1 := NewRegistry(Config{
		MaxSessions: 16, Workers: 4, SweepInterval: time.Hour,
		SnapshotDir: dir, Logf: t.Logf,
	})
	id, err := reg1.Create(testSpec(4, true))
	if err != nil {
		t.Fatal(err)
	}
	var before State
	for i := 0; i < 2; i++ {
		if err := iterateRetry(reg1, id); err != nil {
			t.Fatal(err)
		}
		before, err = waitIdle(reg1, id)
		if err != nil {
			t.Fatal(err)
		}
		if before.Err != "" {
			t.Fatalf("iteration error: %s", before.Err)
		}
	}
	if before.Iteration == 0 {
		t.Fatal("session never progressed before the kill")
	}
	reg1.Shutdown() // the "kill": persists and drops everything

	reg2 := newTestRegistry(t, mutate)
	if n := reg2.RestoreAll(); n != 1 {
		t.Fatalf("RestoreAll restored %d sessions, want 1", n)
	}
	after, err := reg2.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Iteration != before.Iteration {
		t.Fatalf("iteration after restart = %d, want %d", after.Iteration, before.Iteration)
	}
	if math.Abs(after.DistToTruth-before.DistToTruth) > 1e-12 {
		t.Fatalf("dist to truth after restart = %v, want %v", after.DistToTruth, before.DistToTruth)
	}
	chartEqual(t, before.Vis, after.Vis)

	// And the restored session keeps working.
	if err := iterateRetry(reg2, id); err != nil {
		t.Fatal(err)
	}
	st, err := waitIdle(reg2, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("post-restart iteration error: %s", st.Err)
	}
}

func chartEqual(t *testing.T, a, b *vis.Data) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("one chart is nil: %v vs %v", a == nil, b == nil)
	}
	if a == nil {
		return
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("chart point count: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].Label != b.Points[i].Label {
			t.Fatalf("chart label %d: %q vs %q", i, a.Points[i].Label, b.Points[i].Label)
		}
		if math.Abs(a.Points[i].Y-b.Points[i].Y) > 1e-12 {
			t.Fatalf("chart value %d: %v vs %v", i, a.Points[i].Y, b.Points[i].Y)
		}
	}
}

// TestCloseDeletesSnapshot distinguishes close (user done, snapshot
// deleted) from eviction (snapshot kept).
func TestCloseDeletesSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) { c.SnapshotDir = dir })
	id, err := reg.Create(testSpec(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(reg.snapshotPath(id)); err != nil {
		t.Fatalf("create did not persist: %v", err)
	}
	if err := reg.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(reg.snapshotPath(id)); err == nil {
		t.Fatal("close left the snapshot behind")
	}
	if _, err := reg.State(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("state after close: err = %v, want ErrNotFound", err)
	}
}
