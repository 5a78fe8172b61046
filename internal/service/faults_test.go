package service

// faults_test.go — failpoint-driven regression tests for the
// concurrency and durability bugs the fault-injection layer exposed:
// the close/restore resurrection race, orphaned snapshot temp files,
// the wedged-iteration teardown timeout, persist retry + eviction
// keep-alive, RestoreAll at the capacity cap, and the worker-pool
// queue-depth gauge.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"visclean/internal/dataset"
	"visclean/internal/fault"
	"visclean/internal/obs"
	"visclean/internal/pipeline"
)

// logCapture is a concurrency-safe Config.Logf sink.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) contains(sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// TestCloseRestoreNoResurrection drives the close/restore race: Close
// on a disk-only session runs while a concurrent restore has already
// read the snapshot (a fault delay inside restore widens the window
// from nanoseconds to 150ms). The per-id lock must serialize them so
// the closed id can neither stay registered nor re-persist its
// snapshot.
func TestCloseRestoreNoResurrection(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) {
		c.SnapshotDir = dir
		c.IdleTTL = time.Millisecond
	})
	id, err := reg.Create(testSpec(1, false))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if reg.Len() != 0 {
		t.Fatalf("session still live after eviction")
	}

	fault.ArmDelay("service/restore.build", 150*time.Millisecond, fault.Schedule{Always: true})
	restoreDone := make(chan error, 1)
	go func() {
		_, err := reg.State(id) // lazy restore, parked in the delay point
		restoreDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the restore read the snapshot
	if err := reg.Close(id); err != nil {
		t.Fatalf("close during restore: %v", err)
	}
	<-restoreDone // either outcome is legal; the invariant is below
	fault.Reset()

	if _, err := reg.State(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("closed session resurrected: State err = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(reg.snapshotPath(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("closed session's snapshot reappeared on disk")
	}
}

// TestOrphanTempSweep crash-simulates a kill between CreateTemp and
// Rename, then checks the registry reclaims the aged orphan while
// sparing a fresh temp file (which could belong to a live writer).
func TestOrphanTempSweep(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()

	fault.ArmCrash("service/persist.rename", fault.Schedule{Calls: []int{1}})
	err := WriteSnapshotFile(filepath.Join(dir, "dead0001.json"),
		Snapshot{ID: "dead0001", Spec: testSpec(1, false).WithDefaults()})
	if !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("crash failpoint: err = %v, want ErrCrash", err)
	}
	fault.Reset()
	if _, err := os.Stat(filepath.Join(dir, "dead0001.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crashed write still produced a final snapshot")
	}

	var orphan string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".json.tmp-") {
			orphan = filepath.Join(dir, e.Name())
		}
	}
	if orphan == "" {
		t.Fatal("simulated crash left no orphan temp file")
	}
	old := time.Now().Add(-2 * orphanTempGrace)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "live0001.json.tmp-42")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	newTestRegistry(t, func(c *Config) { c.SnapshotDir = dir })
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("aged orphan temp file survived the sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was swept (grace period ignored): %v", err)
	}
}

// wedgedUser wedges the first question forever, ignoring cancellation —
// the "stuck user code" the teardown timeout exists for.
type wedgedUser struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (u *wedgedUser) block() {
	u.once.Do(func() { close(u.started) })
	<-u.release
}

func (u *wedgedUser) AnswerT(a, b dataset.TupleID) (bool, bool) { u.block(); return false, false }
func (u *wedgedUser) AnswerA(c, v1, v2 string) (bool, bool)     { u.block(); return false, false }
func (u *wedgedUser) AnswerM(c string, id dataset.TupleID) (float64, bool) {
	u.block()
	return 0, false
}
func (u *wedgedUser) AnswerO(c string, id dataset.TupleID, cur float64) (bool, float64, bool) {
	u.block()
	return false, 0, false
}

// TestTeardownTimeoutDropsWedged: a wedged iteration must be dropped
// without a snapshot after teardownTimeout (driven here by the injected
// teardown clock), while a healthy session in the same sweep persists —
// and the zombie iteration finishing later must not write a snapshot
// for the dropped session either.
func TestTeardownTimeoutDropsWedged(t *testing.T) {
	dir := t.TempDir()
	wedge := &wedgedUser{started: make(chan struct{}), release: make(chan struct{})}
	expired := make(chan time.Time)
	close(expired) // the injected teardown clock fires immediately
	lc := &logCapture{}
	reg := NewRegistry(Config{
		MaxSessions: 4, Workers: 2, SweepInterval: time.Hour,
		IdleTTL: time.Millisecond, SnapshotDir: dir,
		Logf:          lc.logf,
		teardownAfter: func(time.Duration) <-chan time.Time { return expired },
		Factory: func(spec Spec) (*pipeline.Session, pipeline.User, error) {
			ps, auto, err := StandardFactory(spec)
			if err != nil {
				return nil, nil, err
			}
			if spec.Seed == 999 {
				return ps, wedge, nil
			}
			return ps, auto, nil
		},
	})
	release := sync.OnceFunc(func() { close(wedge.release) })
	defer reg.Shutdown() // deferred first so the release below runs before it
	defer release()

	healthy, err := reg.Create(testSpec(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(reg, healthy); err != nil {
		t.Fatal(err)
	}
	if _, err := waitIdle(reg, healthy); err != nil {
		t.Fatal(err)
	}
	wedged, err := reg.Create(testSpec(999, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Iterate(wedged, ""); err != nil {
		t.Fatal(err)
	}
	<-wedge.started // the iteration is inside stuck user code now
	// Remove the creation-time snapshot so "dropped without a snapshot"
	// is directly observable as file absence.
	if err := os.Remove(reg.snapshotPath(wedged)); err != nil {
		t.Fatal(err)
	}

	time.Sleep(5 * time.Millisecond) // both idle past the 1ms TTL
	if n := reg.Sweep(); n != 2 {
		t.Fatalf("sweep evicted %d sessions, want 2", n)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry still holds %d sessions", reg.Len())
	}
	if !lc.contains("did not stop within 30s") {
		t.Fatal("wedged drop was not logged with the teardown timeout")
	}
	if _, err := ReadSnapshotFile(reg.snapshotPath(healthy)); err != nil {
		t.Fatalf("healthy session was not persisted: %v", err)
	}
	if _, err := os.Stat(reg.snapshotPath(wedged)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("wedged session was snapshotted despite the timeout")
	}

	// Release the zombie: when its iteration finally finishes, the
	// closed-session check must suppress its end-of-iteration persist.
	release()
	time.Sleep(100 * time.Millisecond)
	if _, err := os.Stat(reg.snapshotPath(wedged)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("zombie iteration resurrected the dropped session's snapshot")
	}
}

// TestPersistRetryThenEvictionKeepAlive covers the two persist
// hardening layers: a transient write failure is absorbed by the retry
// loop, and a persistent one makes eviction keep the session live
// (bumping visclean_persist_failures_total) instead of silently
// dropping it.
func TestPersistRetryThenEvictionKeepAlive(t *testing.T) {
	defer fault.Reset()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	base := obsPersistFailures.Value()

	dir := t.TempDir()
	lc := &logCapture{}
	reg := newTestRegistry(t, func(c *Config) {
		c.SnapshotDir = dir
		c.IdleTTL = time.Millisecond
		c.Logf = lc.logf
	})
	id, err := reg.Create(testSpec(1, true))
	if err != nil {
		t.Fatal(err)
	}

	// Transient failure: exactly the next write attempt fails; the
	// retry inside persistSession must succeed.
	fault.ArmError("service/persist.write", errors.New("injected hiccup"), fault.Schedule{Calls: []int{1}})
	if err := iterateRetry(reg, id); err != nil {
		t.Fatal(err)
	}
	if _, err := waitIdle(reg, id); err != nil {
		t.Fatal(err)
	}
	if hits := fault.Hits("service/persist.write"); hits < 2 {
		t.Fatalf("persist reached the write point %d times, want ≥ 2 (retry)", hits)
	}
	snap, err := ReadSnapshotFile(reg.snapshotPath(id))
	if err != nil {
		t.Fatalf("snapshot unreadable after retried persist: %v", err)
	}
	if snap.History.NumAnswers() == 0 {
		t.Fatal("retried persist did not capture the iteration's answers")
	}
	if got := obsPersistFailures.Value(); got != base {
		t.Fatalf("transient failure counted as persist failure (%d → %d)", base, got)
	}
	fault.Reset()

	// Persistent failure: eviction must keep the session live.
	fault.ArmError("service/persist.write", errors.New("injected disk gone"), fault.Schedule{Always: true})
	time.Sleep(5 * time.Millisecond)
	if n := reg.Sweep(); n != 0 {
		t.Fatalf("sweep evicted %d sessions despite failed persist, want 0", n)
	}
	if reg.Len() != 1 {
		t.Fatal("session dropped although its snapshot could not be written")
	}
	if got := obsPersistFailures.Value(); got != base+1 {
		t.Fatalf("persist failures counter = %d, want %d", got, base+1)
	}
	if !lc.contains("kept live after persist failure") {
		t.Fatal("keep-alive not logged")
	}
	if _, err := reg.State(id); err != nil {
		t.Fatalf("kept session unusable: %v", err)
	}

	// Disk heals: the next sweep evicts cleanly.
	fault.Reset()
	time.Sleep(5 * time.Millisecond)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("post-recovery sweep evicted %d sessions, want 1", n)
	}
	if reg.Len() != 0 {
		t.Fatal("session still live after successful eviction")
	}
	if _, err := ReadSnapshotFile(reg.snapshotPath(id)); err != nil {
		t.Fatalf("post-recovery eviction left no snapshot: %v", err)
	}
}

// TestRestoreAllAtCapacity: more snapshots on disk than MaxSessions —
// exactly cap sessions restore, the rest stay intact on disk for lazy
// restore, and the over-cap skips are reported as capacity, never as
// corruption.
func TestRestoreAllAtCapacity(t *testing.T) {
	dir := t.TempDir()
	reg1 := NewRegistry(Config{
		MaxSessions: 8, Workers: 2, SweepInterval: time.Hour,
		SnapshotDir: dir, Logf: t.Logf,
	})
	for i := 0; i < 4; i++ {
		if _, err := reg1.Create(testSpec(int64(i+1), false)); err != nil {
			t.Fatal(err)
		}
	}
	reg1.Shutdown()

	lc := &logCapture{}
	reg2 := NewRegistry(Config{
		MaxSessions: 2, Workers: 2, SweepInterval: time.Hour,
		SnapshotDir: dir, Logf: lc.logf,
	})
	t.Cleanup(reg2.Shutdown)
	if n := reg2.RestoreAll(); n != 2 {
		t.Fatalf("RestoreAll restored %d sessions, want exactly the cap (2)", n)
	}
	if reg2.Len() != 2 {
		t.Fatalf("Len after capped restore = %d, want 2", reg2.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	jsonFiles := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			jsonFiles++
		}
	}
	if jsonFiles != 4 {
		t.Fatalf("%d snapshots on disk after capped restore, want all 4 intact", jsonFiles)
	}
	if lc.contains("skipping snapshot") || lc.contains("corrupt") {
		t.Fatalf("over-cap snapshots logged as corruption: %v", lc.lines)
	}
	if !lc.contains("left on disk") {
		t.Fatal("capacity skip was not reported")
	}
}

// TestQueueDepthGauge pins the pool's queue-depth gauge to the atomic
// job counter: with one worker blocked, three queued jobs must read as
// exactly 3, and the gauge must return to 0 once drained — regardless
// of how submit and dequeue interleave.
func TestQueueDepthGauge(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	obsQueueDepth.Set(0)
	obsWorkersBusy.Set(0)

	p := newPool(1, 4)
	defer p.shutdown()
	block := make(chan struct{})
	running := make(chan struct{})
	if !p.trySubmit(func() { running <- struct{}{}; <-block }) {
		t.Fatal("submit rejected on an empty pool")
	}
	<-running // the sole worker is busy; the queue is empty
	for i := 0; i < 3; i++ {
		if !p.trySubmit(func() {}) {
			t.Fatalf("submit %d rejected below queue depth", i)
		}
	}
	if got := obsQueueDepth.Value(); got != 3 {
		t.Fatalf("queue depth gauge = %d, want 3", got)
	}
	if got := obsWorkersBusy.Value(); got != 1 {
		t.Fatalf("workers busy gauge = %d, want 1", got)
	}
	close(block)
	deadline := time.Now().Add(10 * time.Second)
	for obsQueueDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth gauge stuck at %d after drain", obsQueueDepth.Value())
		}
		time.Sleep(time.Millisecond)
	}
}
