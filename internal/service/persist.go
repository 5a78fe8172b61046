package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"visclean/internal/fault"
	"visclean/internal/obs"
	"visclean/internal/pipeline"
)

// SnapshotVersion is bumped whenever the snapshot schema changes
// incompatibly; readers skip snapshots from the future.
const SnapshotVersion = 1

// Snapshot is the on-disk form of a session: the spec that built it plus
// its answer log. Replaying History against a session freshly built from
// Spec reproduces the live state (see pipeline.Session.Replay).
type Snapshot struct {
	Version     int              `json:"version"`
	ID          string           `json:"id"`
	Spec        Spec             `json:"spec"`
	SavedAtUnix int64            `json:"savedAt"`
	History     pipeline.History `json:"history"`
	// Fingerprint is the session's dataset content hash (DESIGN.md §12),
	// recorded for diagnostics. Snapshots never embed cached artifacts —
	// restore rebuilds the session from Spec+History and re-acquires its
	// artifacts from the registry's shared cache by this same key, which
	// is recomputed from the rebuilt table. Empty when the session ran
	// without a cache.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// WriteSnapshotFile atomically and durably persists a snapshot: the
// JSON is written to a temp file in the target directory, fsynced,
// renamed into place, and the directory is fsynced so the rename itself
// survives a power loss — a crash mid-write leaves either the old
// snapshot or none under the final name, never a truncated one.
//
// Failpoints (DESIGN.md §8): service/persist.write, .sync, .rename,
// .dirsync. A simulated crash at any of them unwinds without cleanup,
// leaving the temp file orphaned exactly as a kill would — the orphan
// sweep in NewRegistry/RestoreAll reclaims those.
func WriteSnapshotFile(path string, snap Snapshot) (err error) {
	defer fault.RecoverCrash(&err)
	snap.Version = SnapshotVersion
	if snap.SavedAtUnix == 0 {
		snap.SavedAtUnix = time.Now().Unix()
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("service: encode snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("service: write snapshot: %w", err)
	}
	tmpName := tmp.Name()
	werr := fault.Point("service/persist.write")
	if werr == nil {
		_, werr = tmp.Write(data)
	}
	serr := fault.Point("service/persist.sync")
	if serr == nil {
		serr = tmp.Sync()
	}
	cerr := tmp.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			_ = os.Remove(tmpName)
			return fmt.Errorf("service: write snapshot: %w", e)
		}
	}
	if err := fault.Point("service/persist.rename"); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("service: write snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("service: write snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// The snapshot is in place but its directory entry may not be
		// durable yet; report it so callers retry the whole write.
		return fmt.Errorf("service: sync snapshot dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	if err := fault.Point("service/persist.dirsync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// ReadSnapshotFile loads and validates one snapshot. A missing file
// returns os.ErrNotExist (wrapped); a corrupt, truncated or
// future-versioned file returns a descriptive error so callers can log
// and skip it rather than fail the whole server.
func ReadSnapshotFile(path string) (Snapshot, error) {
	var snap Snapshot
	if err := fault.Point("service/persist.read"); err != nil {
		return snap, fmt.Errorf("service: read snapshot %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("service: corrupt snapshot %s: %w", path, err)
	}
	if snap.Version <= 0 || snap.Version > SnapshotVersion {
		return snap, fmt.Errorf("service: snapshot %s has unsupported version %d (supported ≤ %d)",
			path, snap.Version, SnapshotVersion)
	}
	if snap.ID == "" {
		return snap, fmt.Errorf("service: snapshot %s has no session id", path)
	}
	return snap, nil
}

// snapshotPath maps a session id to its snapshot file.
func (r *Registry) snapshotPath(id string) string {
	return filepath.Join(r.cfg.SnapshotDir, id+".json")
}

// Persist retry backoff: transient write failures (full disk clearing,
// antivirus briefly locking the file, an injected fault) are retried
// persistRetries times (up to 3 attempts) with capped exponential
// backoff before the persist is declared failed.
const (
	persistRetries   = 2
	persistRetryBase = 5 * time.Millisecond
	persistRetryMax  = 40 * time.Millisecond
)

// persistSession snapshots a session's current history to disk,
// retrying transient failures persistRetries times. Callers must
// hold exclusive ownership of the pipeline (worker at iteration end, or
// registry teardown after the iteration stopped). On failure (after
// retries) it bumps visclean_persist_failures_total and returns the
// error; eviction uses that to keep the session live instead of
// dropping acked answers.
func (r *Registry) persistSession(s *Session) error {
	if r.cfg.SnapshotDir == "" {
		return nil
	}
	snap := Snapshot{ID: s.id, Spec: s.spec, History: s.ps.History(), Fingerprint: s.ps.Fingerprint()}
	path := r.snapshotPath(s.id)
	start := time.Now()
	var err error
	backoff := persistRetryBase
	for attempt := 0; ; attempt++ {
		err = WriteSnapshotFile(path, snap)
		if err == nil {
			break
		}
		// A simulated crash means "the process died here": the retry
		// loop does not exist in that world, so don't run it.
		if errors.Is(err, fault.ErrCrash) || attempt >= persistRetries {
			break
		}
		r.cfg.Logf("service: persist session %s (attempt %d of %d): %v",
			s.id, attempt+1, persistRetries+1, err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > persistRetryMax {
			backoff = persistRetryMax
		}
	}
	if err != nil {
		obsPersistFailures.Inc()
		r.cfg.Logf("service: persist session %s failed: %v", s.id, err)
		return err
	}
	if obs.Enabled() {
		obsSnapshotSeconds.Observe(time.Since(start).Seconds())
		if fi, err := os.Stat(path); err == nil {
			obsSnapshotBytes.Observe(float64(fi.Size()))
		}
	}
	return nil
}

// orphanTempGrace is how old a snapshot temp file must be before the
// orphan sweep may delete it. The grace period keeps the sweep from
// racing a live writer in another process pointed at the same
// directory; any tmp file this old is the residue of a crash between
// CreateTemp and Rename.
const orphanTempGrace = time.Hour

// sweepOrphanTemps removes stale `<id>.json.tmp-*` files left behind by
// crashes mid-persist. Called at registry construction and before
// RestoreAll scans.
func (r *Registry) sweepOrphanTemps() {
	entries, err := os.ReadDir(r.cfg.SnapshotDir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanTempGrace)
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".json.tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(r.cfg.SnapshotDir, e.Name())) == nil {
			r.cfg.Logf("service: removed orphaned snapshot temp file %s", e.Name())
		}
	}
}

// deleteSnapshot removes a session's snapshot file, reporting whether
// one existed.
func (r *Registry) deleteSnapshot(id string) bool {
	if r.cfg.SnapshotDir == "" {
		return false
	}
	return os.Remove(r.snapshotPath(id)) == nil
}
