package service

// Session migration: the primitives the cluster router composes into
// shard-to-shard handoff (DESIGN.md §9). Detach quiesces a session and
// returns its snapshot — the same spec + answer-log payload persistence
// uses — and Attach rebuilds one from a snapshot via factory + replay.
// Because replay is deterministic (pipeline.Session.Replay), a detached
// session attached elsewhere resumes with the exact table, model and
// chart state it left with, including answers applied mid-iteration
// (the cancel path folds them into History.Partial).
//
// Detach deliberately does NOT delete the local snapshot file. In the
// shared-snapshot-directory deployment the importer's first persist
// atomically supersedes it; with per-shard directories the stale copy
// is inert as long as the router's single-writer routing holds (a shard
// never serves a session the ring assigns elsewhere). Keeping the file
// means a migration interrupted between export and import loses
// nothing: the session is still durable at its last persisted boundary
// and lazily restorable by whichever shard is asked for it next.

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// Detach removes a session from this registry and returns its snapshot
// for transfer to another registry. A live session is quiesced first —
// cancelled, waited for, its partial answers folded into the history —
// so the snapshot carries every acknowledged answer, not just the last
// persisted boundary. A session known only on disk is handed over as
// its persisted snapshot. The id is unknown here afterwards (until a
// lazy restore resurrects the on-disk copy; see the package comment).
func (r *Registry) Detach(id string) (Snapshot, error) {
	if !validSessionID(id) {
		return Snapshot{}, ErrNotFound
	}
	release := r.lockID(id)
	defer release()

	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if !ok {
		// Disk-only session: hand over the last persisted boundary.
		snap, err := r.readDiskSnapshot(id)
		if err != nil {
			return Snapshot{}, err
		}
		obsSessionsDetached.Inc()
		r.cfg.Logf("service: session %s detached (snapshot only)", id)
		return snap, nil
	}

	// Quiesce exactly like an eviction: mark closed (blocks new
	// iterations and bars the zombie-persist path), cancel, wait.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	s.closed = true
	done := s.iterDone
	s.mu.Unlock()
	s.cancel()
	wedged := false
	if done != nil {
		select {
		case <-done:
		case <-r.cfg.teardownAfter(r.cfg.TeardownTimeout):
			// The iteration ignored cancellation; the pipeline may still
			// be mutating, so its history is unsafe to read.
			wedged = true
		}
	}
	r.mu.Lock()
	delete(r.sessions, id)
	obsSessionsLive.Set(int64(len(r.sessions)))
	r.mu.Unlock()

	if wedged {
		// Safe beside the still-running iteration, as in teardownAll.
		s.ps.Close()
		r.cfg.Logf("service: session %s iteration did not stop within %v during detach; handing over last persisted boundary",
			id, r.cfg.TeardownTimeout)
		snap, err := r.readDiskSnapshot(id)
		if err != nil {
			return Snapshot{}, fmt.Errorf("service: detach %s: wedged iteration and no durable snapshot: %w", id, err)
		}
		obsSessionsDetached.Inc()
		return snap, nil
	}

	snap := Snapshot{
		Version:     SnapshotVersion,
		ID:          id,
		Spec:        s.spec,
		SavedAtUnix: time.Now().Unix(),
		History:     s.ps.History(),
	}
	// The session is out of this registry for good: release its
	// artifact-cache handles so the shared entries can go idle.
	s.ps.Close()
	obsSessionsDetached.Inc()
	r.cfg.Logf("service: session %s detached (%d iterations, %d answers)",
		id, len(snap.History.Iterations), snap.History.NumAnswers())
	return snap, nil
}

// readDiskSnapshot loads and validates a session's persisted snapshot.
func (r *Registry) readDiskSnapshot(id string) (Snapshot, error) {
	if r.cfg.SnapshotDir == "" {
		return Snapshot{}, ErrNotFound
	}
	snap, err := ReadSnapshotFile(r.snapshotPath(id))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			r.cfg.Logf("service: detach %s: %v", id, err)
		}
		return Snapshot{}, ErrNotFound
	}
	if snap.ID != id {
		r.cfg.Logf("service: detach %s: snapshot claims id %s", id, snap.ID)
		return Snapshot{}, ErrNotFound
	}
	return snap, nil
}

// Attach registers a session rebuilt from a snapshot: factory(spec),
// then deterministic replay of the answer log — the import half of a
// migration. It fails with ErrExists if the id is already live here,
// ErrBusy at the capacity cap, and persists the session locally on
// success so the new owner is immediately durable.
func (r *Registry) Attach(snap Snapshot) error {
	id := snap.ID
	if !validSessionID(id) {
		return fmt.Errorf("service: attach: invalid session id %q", id)
	}
	if snap.Version <= 0 || snap.Version > SnapshotVersion {
		return fmt.Errorf("service: attach %s: unsupported snapshot version %d (supported ≤ %d)",
			id, snap.Version, SnapshotVersion)
	}
	release := r.lockID(id)
	defer release()

	r.mu.Lock()
	_, live := r.sessions[id]
	r.mu.Unlock()
	if live {
		return ErrExists
	}
	if err := r.reserveSlot(); err != nil {
		return err
	}
	ps, auto, err := r.cfg.Factory(snap.Spec)
	if err == nil {
		err = ps.Replay(snap.History)
	}
	if err != nil {
		if ps != nil {
			// The factory built the session but replay failed: release its
			// artifact-cache handles before discarding it.
			ps.Close()
		}
		r.releaseSlot()
		return fmt.Errorf("service: attach session %s: %w", id, err)
	}
	s := r.wrap(id, snap.Spec, ps, auto)
	r.mu.Lock()
	r.building--
	if r.closed {
		r.mu.Unlock()
		s.cancel()
		s.ps.Close()
		return ErrClosed
	}
	r.sessions[id] = s
	obsSessionsLive.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	obsSessionsAttached.Inc()
	_ = r.persistSession(s)
	r.cfg.Logf("service: session %s attached (%d iterations, %d answers replayed)",
		id, len(snap.History.Iterations), snap.History.NumAnswers())
	return nil
}
