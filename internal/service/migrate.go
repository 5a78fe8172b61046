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

	// Quiesce exactly like an eviction: stop (blocks new iterations and
	// bars the zombie-persist path), await, drop.
	if !s.stop() {
		return Snapshot{}, ErrClosed
	}
	if !r.await(s) {
		r.drop(s)
		r.cfg.Logf("service: session %s iteration did not stop within %v during detach; handing over last persisted boundary",
			id, teardownTimeout)
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
	r.drop(s)
	obsSessionsDetached.Inc()
	r.cfg.Logf("service: session %s detached (%d iterations, %d answers)",
		id, len(snap.History.Iterations), snap.History.NumAnswers())
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
	s, err := r.admit(id, snap.Spec, &snap.History)
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClosed):
		return err
	case err != nil:
		return fmt.Errorf("service: attach session %s: %w", id, err)
	}
	obsSessionsAttached.Inc()
	_ = r.persistSession(s)
	r.cfg.Logf("service: session %s attached (%d iterations, %d answers replayed)",
		id, len(snap.History.Iterations), snap.History.NumAnswers())
	return nil
}
