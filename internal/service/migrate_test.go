package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/pipeline"
)

// assertReleased fails unless an artifact cache holds entries and no
// handle on any of them: every session that acquired them has let go.
func assertReleased(t *testing.T, st artifact.Stats, when string) {
	t.Helper()
	if st.Entries == 0 || st.Idle != st.Entries {
		t.Fatalf("%s: %d of %d artifact-cache entries still held", when, st.Entries-st.Idle, st.Entries)
	}
}

// historyJSON canonicalizes a snapshot's answer log for comparison.
func historyJSON(t *testing.T, s Snapshot) string {
	t.Helper()
	data, err := json.Marshal(s.History)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDetachAttachRoundTrip migrates an auto session at an iteration
// boundary between two registries with no snapshot directory (so the
// moved session exists nowhere but in the transferred snapshot) and
// asserts the attached session is bit-exactly the detached one — same
// chart, same distance-to-truth — and resumes the fault-free
// trajectory. The exporting registry must release the session's
// artifact-cache handles.
func TestDetachAttachRoundTrip(t *testing.T) {
	regA := newTestRegistry(t, nil)
	regB := newTestRegistry(t, nil)

	id, err := regA.Create(testSpec(11, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := iterateRetry(regA, id); err != nil {
			t.Fatal(err)
		}
		if _, err := waitIdle(regA, id); err != nil {
			t.Fatal(err)
		}
	}
	before, err := regA.State(id)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := regA.Detach(id)
	if err != nil {
		t.Fatalf("detach: %v", err)
	}
	if snap.ID != id || len(snap.History.Iterations) != 2 {
		t.Fatalf("snapshot shape: id=%s iterations=%d", snap.ID, len(snap.History.Iterations))
	}
	if _, err := regA.State(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("session still on old registry after detach: %v", err)
	}
	assertReleased(t, regA.ArtifactStats(), "after Detach")

	if err := regB.Attach(snap); err != nil {
		t.Fatalf("attach: %v", err)
	}
	after, err := regB.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := chartKey(after), chartKey(before); got != want {
		t.Fatalf("attached state diverged:\n got %s\nwant %s", got, want)
	}

	// The migrated session must resume the same trajectory a
	// never-migrated session follows: drive one more iteration on the
	// new registry and compare with a pristine 3-iteration run.
	if err := iterateRetry(regB, id); err != nil {
		t.Fatal(err)
	}
	resumed, err := waitIdle(regB, id)
	if err != nil {
		t.Fatal(err)
	}
	regRef := newTestRegistry(t, nil)
	refID, err := regRef.Create(testSpec(11, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := iterateRetry(regRef, refID); err != nil {
			t.Fatal(err)
		}
		if _, err := waitIdle(regRef, refID); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := regRef.State(refID)
	if err != nil {
		t.Fatal(err)
	}
	// chartKey includes the iteration count; ids differ but charts and
	// distance must match bit-exactly.
	if got, want := chartKey(resumed), chartKey(ref); got != want {
		t.Fatalf("post-migration trajectory diverged:\n got %s\nwant %s", got, want)
	}
}

// TestDetachMidIteration detaches an interactive session with acked
// answers and a parked (unanswered) question mid-iteration: the
// snapshot must carry the acked answers as partial history, the parked
// question must not survive (it was never answered), and re-exporting
// from the new registry must reproduce the identical answer log and
// distance-to-truth.
func TestDetachMidIteration(t *testing.T) {
	regA := newTestRegistry(t, nil)
	regB := newTestRegistry(t, nil)

	id, err := regA.Create(testSpec(7, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(regA, id); err != nil {
		t.Fatal(err)
	}
	// Ack two answers, then leave the third question parked.
	for i := 0; i < 2; i++ {
		st, err := waitQuestion(regA, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := regA.Answer(id, chaosAnswer(*st.Question)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := waitQuestion(regA, id); err != nil {
		t.Fatal(err)
	}

	snap, err := regA.Detach(id)
	if err != nil {
		t.Fatalf("detach mid-iteration: %v", err)
	}
	if len(snap.History.Iterations) != 0 {
		t.Fatalf("no iteration completed, yet %d committed in history", len(snap.History.Iterations))
	}
	// Each ack logs at least one answer (a confirmed T answer also
	// records its implied A-column votes, so the log may hold more).
	if got := len(snap.History.Partial); got < 2 {
		t.Fatalf("partial answers in snapshot = %d, want >= the 2 acked ones", got)
	}

	if err := regB.Attach(snap); err != nil {
		t.Fatalf("attach: %v", err)
	}
	st, err := regB.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Question != nil || st.Running {
		t.Fatalf("attached session resumed with a phantom question: %+v", st.Question)
	}

	// Round-trip invariance: exporting again yields the identical
	// answer history, and a second attach of that export lands at the
	// identical distance-to-truth.
	snap2, err := regB.Detach(id)
	if err != nil {
		t.Fatalf("re-detach: %v", err)
	}
	if got, want := historyJSON(t, snap2), historyJSON(t, snap); got != want {
		t.Fatalf("answer history changed across migration:\n got %s\nwant %s", got, want)
	}
	regC := newTestRegistry(t, nil)
	if err := regC.Attach(snap2); err != nil {
		t.Fatal(err)
	}
	st2, err := regC.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := chartKey(st2), chartKey(st); got != want {
		t.Fatalf("distance/chart diverged across second migration:\n got %s\nwant %s", got, want)
	}
}

// TestCreateWithIDAndAttachRefuseDuplicates: pinned ids and imports
// must never clobber an existing session. Neither a detached session
// nor an import whose replay fails may keep artifact-cache handles.
func TestCreateWithIDAndAttachRefuseDuplicates(t *testing.T) {
	reg := newTestRegistry(t, nil)
	if _, err := reg.CreateWithID("pin-1", testSpec(3, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateWithID("pin-1", testSpec(3, true)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate CreateWithID: %v, want ErrExists", err)
	}
	if _, err := reg.CreateWithID("../evil", testSpec(3, true)); err == nil || errors.Is(err, ErrExists) {
		t.Fatalf("path-traversal id accepted: %v", err)
	}
	snap, err := reg.Detach("pin-1")
	if err != nil {
		t.Fatal(err)
	}
	assertReleased(t, reg.ArtifactStats(), "after Detach")
	if err := reg.Attach(snap); err != nil {
		t.Fatal(err)
	}
	if err := reg.Attach(snap); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate attach: %v, want ErrExists", err)
	}

	bad := snap
	bad.ID = "pin-2"
	bad.History.Partial = append(slices.Clone(snap.History.Partial), pipeline.Answer{Kind: "?"})
	fresh := newTestRegistry(t, nil)
	if err := fresh.Attach(bad); err == nil {
		t.Fatal("an import ending in an answer of unknown kind was accepted")
	}
	assertReleased(t, fresh.ArtifactStats(), "after a failed Attach")
}

// TestDetachWedgedReleasesArtifacts: a Detach whose iteration ignores
// cancellation hands over the last persisted boundary, and must still
// release the session's artifact-cache handles.
func TestDetachWedgedReleasesArtifacts(t *testing.T) {
	cache := artifact.New(0)
	wedge := &wedgedUser{started: make(chan struct{}), release: make(chan struct{})}
	expired := make(chan time.Time)
	close(expired) // the injected teardown clock fires immediately
	reg := newTestRegistry(t, func(c *Config) {
		c.SnapshotDir = t.TempDir()
		c.teardownAfter = func(time.Duration) <-chan time.Time { return expired }
		c.Factory = func(spec Spec) (*pipeline.Session, pipeline.User, error) {
			ps, _, err := CachedFactory(cache)(spec)
			return ps, wedge, err
		}
	})
	defer close(wedge.release) // runs before the registry's Shutdown

	id, err := reg.Create(testSpec(3, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Iterate(id, ""); err != nil {
		t.Fatal(err)
	}
	<-wedge.started // the iteration is inside stuck user code now
	snap, err := reg.Detach(id)
	if err != nil {
		t.Fatalf("wedged detach: %v", err)
	}
	if snap.ID != id || len(snap.History.Iterations) != 0 {
		t.Fatalf("wedged detach handed over id=%s with %d iterations, want the creation-time snapshot",
			snap.ID, len(snap.History.Iterations))
	}
	assertReleased(t, cache.Stats(), "after a wedged Detach")
}

// TestAttachRacingShutdownReleasesArtifacts: an import whose registry
// shuts down while the session is being rebuilt fails with ErrClosed,
// and must release the rebuilt session's artifact-cache handles.
func TestAttachRacingShutdownReleasesArtifacts(t *testing.T) {
	snap := Snapshot{Version: SnapshotVersion, ID: "import-1", Spec: testSpec(3, true).WithDefaults()}
	raceShutdown(t, "an Attach", func(reg *Registry) error { return reg.Attach(snap) })
}

// TestCreateRacingShutdownReleasesArtifacts: the same race on a create,
// which shares admit's closed-registry branch with every entry path.
func TestCreateRacingShutdownReleasesArtifacts(t *testing.T) {
	raceShutdown(t, "a Create", func(reg *Registry) error {
		_, err := reg.Create(testSpec(3, true))
		return err
	})
}

// raceShutdown shuts the registry down while enter's factory call is
// building, then requires ErrClosed and every artifact-cache handle the
// build took released.
func raceShutdown(t *testing.T, what string, enter func(*Registry) error) {
	t.Helper()
	cache := artifact.New(0)
	building, resume := make(chan struct{}), make(chan struct{})
	reg := newTestRegistry(t, func(c *Config) {
		c.Factory = func(spec Spec) (*pipeline.Session, pipeline.User, error) {
			ps, auto, err := CachedFactory(cache)(spec)
			close(building)
			<-resume
			return ps, auto, err
		}
	})
	errc := make(chan error, 1)
	go func() { errc <- enter(reg) }()
	<-building
	reg.Shutdown()
	close(resume)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("%s racing shutdown: %v, want ErrClosed", what, err)
	}
	assertReleased(t, cache.Stats(), "after "+what+" that lost the race with Shutdown")
}

// TestRestoreReplayFailureReleasesArtifacts: a lazy restore whose
// snapshot ends in an answer of unknown kind answers ErrNotFound, leaves
// no live session, and releases the artifact-cache handles the rebuild
// took before its replay failed.
func TestRestoreReplayFailureReleasesArtifacts(t *testing.T) {
	cache := artifact.New(0)
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Factory = CachedFactory(cache)
	})
	snap := Snapshot{
		ID:      "bad-tail",
		Spec:    testSpec(3, true).WithDefaults(),
		History: pipeline.History{Partial: []pipeline.Answer{{Kind: "?"}}},
	}
	if err := WriteSnapshotFile(reg.snapshotPath(snap.ID), snap); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.State(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of a snapshot ending in an unknown answer kind: %v, want ErrNotFound", err)
	}
	if n := reg.Len(); n != 0 {
		t.Fatalf("failed restore left %d live sessions", n)
	}
	assertReleased(t, cache.Stats(), "after a failed lazy restore")
}

// TestCreateWithIDRefusesDiskDuplicate: a pinned id that exists only
// as an on-disk snapshot is taken too.
func TestCreateWithIDRefusesDiskDuplicate(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) { c.SnapshotDir = dir })
	if _, err := reg.CreateWithID("disk-1", testSpec(3, true)); err != nil {
		t.Fatal(err)
	}
	// Evict to disk, leaving no live session.
	forceIdle(reg, "disk-1")
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, err := reg.CreateWithID("disk-1", testSpec(3, true)); !errors.Is(err, ErrExists) {
		t.Fatalf("CreateWithID over snapshot: %v, want ErrExists", err)
	}
}

// TestKillDoesNotPersist: Kill is crash semantics — unlike Shutdown it
// must not write final snapshots, so disk keeps exactly the state of
// the last boundary persist.
func TestKillDoesNotPersist(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) { c.SnapshotDir = dir })
	id, err := reg.Create(testSpec(5, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(reg, id); err != nil {
		t.Fatal(err)
	}
	if _, err := waitIdle(reg, id); err != nil {
		t.Fatal(err)
	}
	// Remove the boundary snapshot; a persisting teardown would rewrite
	// it, a crash-semantics one must not.
	path := filepath.Join(dir, id+".json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	reg.Kill()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Kill persisted a snapshot: stat err = %v", err)
	}
}
