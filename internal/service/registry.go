package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/fault"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// Registry is the multi-tenant session manager: it owns every live
// session, enforces the capacity cap, schedules iterations on the
// bounded worker pool, evicts idle sessions to disk and restores them
// on demand.
type Registry struct {
	cfg  Config
	pool *pool
	// artifacts is the registry-wide shared artifact cache (DESIGN.md
	// §12): sessions over identical dataset content share their frozen
	// setup structures through it. Nil when Config.NoArtifactCache.
	artifacts *artifact.Cache

	mu       sync.Mutex
	sessions map[string]*Session
	// building counts sessions being constructed or restored, so the
	// capacity check covers in-flight creates too.
	building int
	closed   bool
	// idLocks serializes restore and close per session id (entries are
	// refcounted and removed when idle). Without it, Close on a
	// disk-only session can delete the snapshot while a concurrent
	// restore has already read it — the restore then re-registers and
	// later re-persists the session, resurrecting a closed id.
	idLocks map[string]*idLock

	stopSweep   chan struct{}
	sweeperDone chan struct{}
}

// NewRegistry builds a registry and starts its evictor. Call Shutdown
// to stop it and persist every live session.
func NewRegistry(cfg Config) *Registry {
	// Whether the caller injected a Factory must be decided before
	// withDefaults fills the field: only the default factory is safe to
	// swap for the cache-threading one.
	userFactory := cfg.Factory != nil
	r := &Registry{
		cfg:         cfg.withDefaults(),
		sessions:    make(map[string]*Session),
		idLocks:     make(map[string]*idLock),
		stopSweep:   make(chan struct{}),
		sweeperDone: make(chan struct{}),
	}
	if !r.cfg.NoArtifactCache {
		budget := r.cfg.ArtifactBudget
		if budget < 0 {
			budget = 0 // negative Config budget means unlimited
		}
		r.artifacts = artifact.New(budget)
		if !userFactory {
			r.cfg.Factory = CachedFactory(r.artifacts)
		}
	}
	r.pool = newPool(r.cfg.Workers, r.cfg.QueueDepth)
	if r.cfg.SnapshotDir != "" {
		r.sweepOrphanTemps()
	}
	go r.sweeper()
	return r
}

func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to a timestamp.
		return fmt.Sprintf("s%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// validSessionID guards snapshot paths against traversal: generated ids
// are hex, and restore must never turn a request path segment into an
// arbitrary filesystem path.
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
		if !ok {
			return false
		}
	}
	return true
}

// idLock is one per-id restore/close mutex, refcounted so the map entry
// disappears once nobody holds or waits on it.
type idLock struct {
	ref int
	mu  sync.Mutex
}

// lockID acquires the per-id lock, returning its release func. Lock
// order: r.mu is only ever held briefly inside lockID/release, never
// while blocking on an idLock, so the two levels cannot deadlock.
func (r *Registry) lockID(id string) (release func()) {
	r.mu.Lock()
	l := r.idLocks[id]
	if l == nil {
		l = &idLock{}
		r.idLocks[id] = l
	}
	l.ref++
	r.mu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		r.mu.Lock()
		if l.ref--; l.ref == 0 {
			delete(r.idLocks, id)
		}
		r.mu.Unlock()
	}
}

// reserveSlot claims one unit of session capacity.
func (r *Registry) reserveSlot() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if len(r.sessions)+r.building >= r.cfg.MaxSessions {
		obsBusyRejections.Inc()
		return ErrBusy
	}
	r.building++
	return nil
}

func (r *Registry) releaseSlot() {
	r.mu.Lock()
	r.building--
	r.mu.Unlock()
}

// wrap turns a built pipeline session into a managed one and primes its
// cached view state.
func (r *Registry) wrap(id string, spec Spec, ps *pipeline.Session, auto pipeline.User) *Session {
	ps.SetTraceLabel(id)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{
		id:         id,
		spec:       spec,
		reg:        r,
		ctx:        ctx,
		cancel:     cancel,
		ps:         ps,
		autoUser:   auto,
		lastActive: time.Now(),
	}
	s.refreshCache()
	return s
}

// Create builds a new session from the spec and registers it. It fails
// with ErrBusy at the capacity cap. The spec is normalized first; the
// normalized form is what snapshots store.
func (r *Registry) Create(spec Spec) (string, error) {
	// Generated ids are 16 hex chars of crypto/rand output: no duplicate
	// check needed, and no per-id lock either.
	return r.create(newSessionID(), spec)
}

// CreateWithID builds a new session under a caller-chosen id. The
// cluster router uses it so a session's id (and therefore its
// consistent-hash placement) is decided before the shard is picked. It
// fails with ErrExists when the id already names a live session or an
// on-disk snapshot.
func (r *Registry) CreateWithID(id string, spec Spec) (string, error) {
	if !validSessionID(id) {
		return "", fmt.Errorf("service: invalid session id %q", id)
	}
	release := r.lockID(id)
	defer release()
	r.mu.Lock()
	_, live := r.sessions[id]
	r.mu.Unlock()
	if live {
		return "", ErrExists
	}
	if r.cfg.SnapshotDir != "" {
		if _, err := os.Stat(r.snapshotPath(id)); err == nil {
			return "", ErrExists
		}
	}
	return r.create(id, spec)
}

func (r *Registry) create(id string, spec Spec) (string, error) {
	spec = spec.WithDefaults()
	s, err := r.admit(id, spec, nil)
	if err != nil {
		return "", err
	}
	obsSessionsCreated.Inc()
	// Persist immediately so even a never-iterated session survives a
	// restart. A failed persist is logged and metered inside; the
	// session is still live, and the next successful persist (iteration
	// end or eviction) establishes durability.
	_ = r.persistSession(s)
	r.cfg.Logf("service: session %s created (%s scale=%g seed=%d auto=%v)",
		id, spec.Dataset, spec.Scale, spec.Seed, spec.Auto)
	return id, nil
}

// admit builds a session and registers it under id, for create, lazy
// restore and Attach alike: it reserves a slot, runs the Factory,
// replays hist when rebuilding from a snapshot (hist non-nil), wraps
// the session and registers it. A build or replay failure releases the
// slot and the built pipeline's artifact-cache handles and returns the
// error; a registry shut down meanwhile releases them too and gives
// ErrClosed. ErrBusy and ErrClosed from the slot reservation come back
// unwrapped.
func (r *Registry) admit(id string, spec Spec, hist *pipeline.History) (*Session, error) {
	if err := r.reserveSlot(); err != nil {
		return nil, err
	}
	var ps *pipeline.Session
	var auto pipeline.User
	var err error
	// Failpoints service/restore.build and .replay fire on a rebuild from
	// a snapshot only. A delay at .build widens the window between the
	// snapshot read and the rebuild, which the close/restore regression
	// test drives.
	if hist != nil {
		err = fault.Point("service/restore.build")
	}
	if err == nil {
		ps, auto, err = r.cfg.Factory(spec)
	}
	if err == nil && hist != nil {
		if err = fault.Point("service/restore.replay"); err == nil {
			err = ps.Replay(*hist)
		}
	}
	if err != nil {
		if ps != nil {
			ps.Close()
		}
		r.releaseSlot()
		return nil, err
	}
	s := r.wrap(id, spec, ps, auto)
	r.mu.Lock()
	r.building--
	if r.closed {
		r.mu.Unlock()
		s.cancel()
		ps.Close()
		return nil, ErrClosed
	}
	r.sessions[id] = s
	obsSessionsLive.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	return s, nil
}

// get returns a live session, lazily restoring it from its snapshot if
// the id is known only on disk.
func (r *Registry) get(id string) (*Session, error) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if ok {
		return s, nil
	}
	return r.restore(id)
}

// restore rebuilds a session from its snapshot: factory(spec) then
// replay of the answer log, all under the per-id lock so a concurrent
// Close cannot delete the snapshot mid-restore (and two restores of the
// same id cannot double-build). Corrupt or unreadable snapshots are
// reported as ErrNotFound to the caller after logging — one bad file
// must never take the server down.
func (r *Registry) restore(id string) (*Session, error) {
	if r.cfg.SnapshotDir == "" || !validSessionID(id) {
		return nil, ErrNotFound
	}
	release := r.lockID(id)
	defer release()
	// A concurrent restore may have won while we waited for the lock.
	r.mu.Lock()
	if s, ok := r.sessions[id]; ok {
		r.mu.Unlock()
		return s, nil
	}
	r.mu.Unlock()

	snap, err := r.readDiskSnapshot(id)
	if err != nil {
		return nil, err
	}
	s, err := r.admit(id, snap.Spec, &snap.History)
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClosed):
		return nil, err
	case err != nil:
		r.cfg.Logf("service: rebuild session %s: %v", id, err)
		return nil, ErrNotFound
	}
	obsSessionsRestored.Inc()
	r.cfg.Logf("service: session %s restored from snapshot (%d iterations, %d answers replayed)",
		id, len(snap.History.Iterations), snap.History.NumAnswers())
	return s, nil
}

// readDiskSnapshot loads and validates a session's persisted snapshot,
// logging and skipping a corrupt or mismatched file as ErrNotFound.
func (r *Registry) readDiskSnapshot(id string) (Snapshot, error) {
	if r.cfg.SnapshotDir == "" {
		return Snapshot{}, ErrNotFound
	}
	snap, err := ReadSnapshotFile(r.snapshotPath(id))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			r.cfg.Logf("service: skipping snapshot for %s: %v", id, err)
		}
		return Snapshot{}, ErrNotFound
	}
	if snap.ID != id {
		r.cfg.Logf("service: snapshot id mismatch: file %s claims %s", id, snap.ID)
		return Snapshot{}, ErrNotFound
	}
	return snap, nil
}

// RestoreAll eagerly restores every snapshot in the snapshot directory,
// up to the capacity cap, skipping corrupt files; snapshots beyond the
// cap are left intact on disk for lazy restore once capacity frees up.
// It returns how many sessions were restored.
func (r *Registry) RestoreAll() int {
	if r.cfg.SnapshotDir == "" {
		return 0
	}
	r.sweepOrphanTemps()
	entries, err := os.ReadDir(r.cfg.SnapshotDir)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			r.cfg.Logf("service: restore scan: %v", err)
		}
		return 0
	}
	restored, overCap := 0, 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		switch _, err := r.get(id); {
		case err == nil:
			restored++
		case errors.Is(err, ErrBusy):
			// Not corruption: the cap is full. The snapshot stays on
			// disk and restores lazily when a slot frees.
			overCap++
		}
	}
	if overCap > 0 {
		r.cfg.Logf("service: restore: %d snapshot(s) left on disk (session capacity %d reached)",
			overCap, r.cfg.MaxSessions)
	}
	return restored
}

// State returns a session's current view state, touching its idle clock
// (an actively polled session is a live session).
func (r *Registry) State(id string) (State, error) {
	s, err := r.get(id)
	if err != nil {
		return State{}, err
	}
	s.touch()
	return s.State(), nil
}

// Iterate schedules one cleaning iteration on the worker pool. The tag
// (typically the X-Request-ID header the cluster router stamped on the
// request, or empty) is folded into the iteration's obs trace label, so
// one request can be followed from the router through the shard into
// the pipeline trace. It fails with ErrIterationRunning if one is
// already in flight for this session and with ErrOverloaded when the
// pool queue is full (backpressure).
func (r *Registry) Iterate(id, tag string) error {
	s, err := r.get(id)
	if err != nil {
		return err
	}
	if err := s.claim(true, tag); err != nil {
		return err
	}
	if !r.pool.trySubmit(s.runIteration) {
		s.release(nil, nil)
		obsOverloadRejections.Inc()
		return ErrOverloaded
	}
	return nil
}

// AddView registers an additional VQL view on a live session and
// returns its index. The view lands in the session's answer log
// (pipeline.AnswerKindV), so the next snapshot persists it and replay
// restores it in order. It fails with ErrIterationRunning while an
// iteration is in flight — view registration mutates pipeline state and
// must not interleave with one.
func (r *Registry) AddView(id, query string) (int, error) {
	s, err := r.get(id)
	if err != nil {
		return 0, err
	}
	q, err := vql.Parse(query)
	if err != nil {
		return 0, err
	}
	// Claim the pipeline exactly like an iteration does: until the
	// release below this goroutine is its sole owner.
	if err := s.claim(false, ""); err != nil {
		return 0, err
	}
	v, err := s.ps.AddView(q)
	if err == nil {
		s.checkpoint()
	}
	s.release(nil, nil)
	if err != nil {
		return 0, err
	}
	r.cfg.Logf("service: session %s view %d added (%s)", id, v, query)
	return v, nil
}

// Answer resolves the session's pending question. A nil return is the
// acknowledgement: the answer has been handed to the iteration and will
// be applied and logged (the durability guarantee in DESIGN.md §8
// starts from here). On error the question stays pending and the client
// may retry.
func (r *Registry) Answer(id string, a Answer) error {
	s, err := r.get(id)
	if err != nil {
		return err
	}
	if err := fault.Point("service/answer.deliver"); err != nil {
		return err
	}
	s.mu.Lock()
	if s.pending == nil {
		s.mu.Unlock()
		return ErrNoQuestion
	}
	reply := s.pending.reply
	s.pending = nil
	s.lastActive = time.Now()
	s.mu.Unlock()
	reply <- a // buffered(1), sole sender per question: never blocks
	return nil
}

// Close terminates a session: its in-flight iteration is cancelled, its
// parked question unparked, and its snapshot deleted — close is the
// "user is done" verb, unlike eviction which preserves the snapshot for
// later resumption. The per-id lock serializes it against a concurrent
// restore of the same id, so a restore that already read the snapshot
// cannot re-register the session after Close deleted the file.
func (r *Registry) Close(id string) error {
	if !validSessionID(id) {
		// Generated ids are always valid, so nothing can exist here.
		return ErrNotFound
	}
	release := r.lockID(id)
	defer release()
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if ok {
		r.teardown(s, false)
		r.deleteSnapshot(id)
		obsSessionsClosed.Inc()
		r.cfg.Logf("service: session %s closed", id)
		return nil
	}
	if r.deleteSnapshot(id) {
		obsSessionsClosed.Inc()
		r.cfg.Logf("service: session %s closed (snapshot only)", id)
		return nil
	}
	return ErrNotFound
}

// teardownTimeout is how long a teardown waits for an in-flight
// iteration to acknowledge cancellation before declaring it wedged and
// dropping the session without a snapshot.
const teardownTimeout = 30 * time.Second

// teardown cancels a session, waits for its iteration to stop,
// optionally persists it, and removes it from the registry.
func (r *Registry) teardown(s *Session, persist bool) {
	r.teardownAll([]*Session{s}, persist, false)
}

// teardownAll tears down a batch: every victim is stopped FIRST, then
// each is awaited. Cancelling up front matters when victims share the
// worker pool — a victim whose iteration is queued behind another
// victim's parked iteration only finishes once that one is cancelled
// too, so cancel-then-wait per session could stall the whole sweep.
//
// With keepOnPersistFailure (eviction), a victim whose snapshot cannot
// be persisted even after retries is NOT dropped: discarding it would
// silently lose acked answers. It is re-registered live (fresh context,
// closed flag cleared) and the next sweep retries. The count of such
// kept sessions is returned.
func (r *Registry) teardownAll(victims []*Session, persist, keepOnPersistFailure bool) (kept int) {
	var stopped []*Session
	for _, s := range victims {
		if s.stop() {
			stopped = append(stopped, s)
		}
	}
	for _, s := range stopped {
		keep := persist
		if !r.await(s) {
			r.cfg.Logf("service: session %s iteration did not stop within %v; dropping without snapshot",
				s.id, teardownTimeout)
			keep = false
		}
		if keep && r.persistSession(s) != nil && keepOnPersistFailure {
			// Persist failed after retries. Resurrect the session under
			// a fresh context rather than dropping state the user was
			// told was applied; the next sweep will retry the persist.
			ns := r.wrap(s.id, s.spec, s.ps, s.autoUser)
			r.mu.Lock()
			if !r.closed {
				r.sessions[s.id] = ns
				r.mu.Unlock()
				r.cfg.Logf("service: session %s kept live after persist failure; will retry at next sweep", s.id)
				kept++
				continue
			}
			r.mu.Unlock()
			ns.cancel()
			r.cfg.Logf("service: session %s state lost: persist failed during shutdown", s.id)
		}
		r.drop(s)
	}
	return kept
}

// await waits for a stopped session's claim to end. It reports false
// when the claim outlives teardownTimeout: the iteration ignored
// cancellation (stuck user code), so the pipeline may still be mutating
// and its history is unsafe to read.
func (r *Registry) await(s *Session) bool {
	s.mu.Lock()
	done := s.iterDone
	s.mu.Unlock()
	if done == nil {
		return true
	}
	select {
	case <-done:
		return true
	case <-r.cfg.teardownAfter(teardownTimeout):
		return false
	}
}

// drop removes a stopped session from the registry for good and
// releases its artifact-cache handles, so the shared entries can go
// idle (and become evictable). Safe even beside a wedged iteration —
// the pipeline's close is guarded against concurrent acquires, and the
// session's own references keep the structures alive.
func (r *Registry) drop(s *Session) {
	r.mu.Lock()
	delete(r.sessions, s.id)
	obsSessionsLive.Set(int64(len(r.sessions)))
	r.mu.Unlock()
	s.ps.Close()
}

// SessionInfo summarizes one live session.
type SessionInfo struct {
	ID         string    `json:"id"`
	Spec       Spec      `json:"spec"`
	Iteration  int       `json:"iteration"`
	Running    bool      `json:"running"`
	LastActive time.Time `json:"lastActive"`
}

// List reports every live session, most recently active first.
func (r *Registry) List() []SessionInfo {
	r.mu.Lock()
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		out = append(out, SessionInfo{
			ID:         s.id,
			Spec:       s.spec,
			Iteration:  s.iterCount,
			Running:    s.running,
			LastActive: s.lastActive,
		})
		s.mu.Unlock()
	}
	sortInfos(out)
	return out
}

func sortInfos(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].LastActive.After(infos[j-1].LastActive); j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// Len reports the number of live sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Sweep evicts every session idle past the TTL: the session is
// cancelled (which unparks any pending question and aborts the
// iteration at its next question boundary), snapshotted to disk and
// dropped from memory. A later request for its id restores it. A
// session whose snapshot cannot be written stays live (see
// teardownAll). Returns the number of sessions actually evicted.
func (r *Registry) Sweep() int {
	cutoff := time.Now().Add(-r.cfg.IdleTTL)
	r.mu.Lock()
	var victims []*Session
	for _, s := range r.sessions {
		s.mu.Lock()
		idle := !s.closed && s.lastActive.Before(cutoff)
		s.mu.Unlock()
		if idle {
			victims = append(victims, s)
		}
	}
	r.mu.Unlock()
	if len(victims) == 0 {
		return 0
	}
	for _, s := range victims {
		r.cfg.Logf("service: evicting idle session %s", s.id)
	}
	kept := r.teardownAll(victims, true, true)
	evicted := len(victims) - kept
	obsSessionsEvicted.Add(int64(evicted))
	return evicted
}

func (r *Registry) sweeper() {
	defer close(r.sweeperDone)
	ticker := time.NewTicker(r.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.Sweep()
		case <-r.stopSweep:
			return
		}
	}
}

// Shutdown stops the evictor, persists and tears down every live
// session, and drains the worker pool. The registry is unusable
// afterwards; a new one pointed at the same SnapshotDir resumes every
// session.
func (r *Registry) Shutdown() { r.halt(true) }

// Kill tears the registry down WITHOUT persisting anything: in-flight
// iterations are cancelled and waited for, but no final snapshots are
// written, so disk keeps exactly what earlier iteration-boundary
// persists made durable — the on-disk state a kill -9 would leave,
// minus the leaked goroutines. It exists for crash drills (the cluster
// chaos harness kills whole in-process shards with it) and must never
// be the production shutdown path.
func (r *Registry) Kill() { r.halt(false) }

// halt is Shutdown's and Kill's one body; persist is their only
// difference.
func (r *Registry) halt(persist bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()

	close(r.stopSweep)
	<-r.sweeperDone
	r.teardownAll(sessions, persist, false)
	r.pool.shutdown()
}

// QueueStats reports the worker pool's shape: jobs accepted but not yet
// picked up, the queue capacity, and the worker count. The web layer
// derives its Retry-After hint from these.
func (r *Registry) QueueStats() (queued, capacity, workers int) {
	return r.pool.stats()
}

// ArtifactStats reports the shared artifact cache's occupancy (zero
// when the cache is disabled).
func (r *Registry) ArtifactStats() artifact.Stats {
	if r.artifacts == nil {
		return artifact.Stats{}
	}
	return r.artifacts.Stats()
}
