package service

// chaos_test.go — the fault-injection chaos harness (DESIGN.md §8).
//
// TestChaosKillRestart drives a storm of concurrent create / iterate /
// answer / evict / close / restore traffic against a registry whose
// persistence and restore paths have deterministic faults armed, kills
// the registry (simulated process death: every final persist fails, so
// disk keeps only what earlier boundaries made durable), restarts it on
// the same snapshot directory, and asserts the recovery invariant:
//
//	a recovered session's state is a bit-exact prefix of the same
//	session's fault-free run — same iteration-boundary charts, bit
//	for bit, never a diverged or merged state.
//
// The invariant is checkable because sessions are deterministic in
// their spec and answer policy: the oracle auto-user answers purely as
// a function of the question (Completeness=1 consults no RNG), and the
// harness's interactive policy below is a pure function too. Protected
// sessions are only killed or evicted at iteration boundaries — a
// mid-iteration cancellation folds partial answers into the history
// and legitimately diverges from an uninterrupted run, which is
// recoverable but not bit-comparable.
//
// Run with -race; check.sh runs it in -short mode (one seed).

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"visclean/internal/fault"
)

// chaosAnswer is the deterministic interactive answer policy: confirm
// every match, keep every outlier candidate, skip missing-value asks.
// It must be a pure function of the question for the bit-exact
// reference comparison to be sound.
func chaosAnswer(q Question) Answer {
	switch q.Kind {
	case "T", "A":
		return Answer{Yes: true}
	case "O":
		return Answer{Yes: false} // not an outlier: keep the current value
	default:
		return Answer{Skip: true}
	}
}

// chartKey fingerprints a session's visible state bit-exactly:
// distance-to-truth plus every chart point's label and y value through
// Float64bits, so even sign-of-zero or last-ulp drift shows up.
func chartKey(st State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iter=%d;d=%016x;", st.Iteration, math.Float64bits(st.DistToTruth))
	if st.Vis != nil {
		for _, p := range st.Vis.Points {
			fmt.Fprintf(&b, "%s=%016x;", p.Label, math.Float64bits(p.Y))
		}
	}
	return b.String()
}

// stateRetry polls State, riding out transient restore failures
// injected by read/replay faults (they surface as ErrNotFound while
// the snapshot stays on disk) and capacity blips (ErrBusy).
func stateRetry(reg *Registry, id string) (State, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := reg.State(id)
		if err == nil || !(errors.Is(err, ErrNotFound) || errors.Is(err, ErrBusy)) {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("session %s unreachable: %w", id, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// driveTo advances a session to targetIter, one fully-completed
// iteration at a time, answering parked questions with chaosAnswer for
// interactive sessions. At every committed boundary it asserts the
// chart bit-matches ref at that iteration (when ref is non-nil). It
// tolerates injected submit, restore and deliver faults by retrying,
// and returns (never t.Fatal's — it runs on harness goroutines).
func driveTo(reg *Registry, id string, targetIter int, interactive bool, ref []string) error {
	deadline := time.Now().Add(180 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s stalled before iteration %d", id, targetIter)
		}
		st, err := stateRetry(reg, id)
		if err != nil {
			return err
		}
		if st.Err != "" {
			return fmt.Errorf("session %s iteration error: %s", id, st.Err)
		}
		if !st.Running {
			if ref != nil && st.Iteration < len(ref) {
				if got, want := chartKey(st), ref[st.Iteration]; got != want {
					return fmt.Errorf("session %s diverged from fault-free run at iteration %d:\n got %s\nwant %s",
						id, st.Iteration, got, want)
				}
			}
			if st.Iteration >= targetIter || (st.Report != nil && st.Report.Exhausted) {
				return nil
			}
			switch err := reg.Iterate(id, ""); {
			case err == nil, errors.Is(err, ErrIterationRunning):
			case errors.Is(err, ErrOverloaded), errors.Is(err, ErrNotFound), errors.Is(err, ErrBusy):
				time.Sleep(5 * time.Millisecond) // backpressure or injected restore fault
			default:
				return fmt.Errorf("iterate %s: %w", id, err)
			}
			continue
		}
		if interactive && st.Question != nil {
			// An injected deliver fault leaves the question pending; the
			// next loop pass retries with the identical policy answer.
			if err := reg.Answer(id, chaosAnswer(*st.Question)); err != nil &&
				!errors.Is(err, ErrNoQuestion) && !errors.Is(err, ErrNotFound) {
				time.Sleep(2 * time.Millisecond)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// referenceCharts runs spec in a pristine fault-free registry and
// records the chart fingerprint at every iteration boundary, index =
// iterations completed, stopping at maxIters or question exhaustion.
func referenceCharts(t *testing.T, spec Spec, maxIters int, interactive bool) []string {
	t.Helper()
	reg := NewRegistry(Config{
		MaxSessions: 4, Workers: 2,
		SweepInterval: time.Hour, IdleTTL: time.Hour,
		Logf: t.Logf,
	})
	defer reg.Shutdown()
	id, err := reg.Create(spec)
	if err != nil {
		t.Fatalf("reference create: %v", err)
	}
	var ref []string
	for i := 0; ; i++ {
		if err := driveTo(reg, id, i, interactive, nil); err != nil {
			t.Fatalf("reference drive: %v", err)
		}
		st, err := reg.State(id)
		if err != nil {
			t.Fatalf("reference state: %v", err)
		}
		if st.Iteration != i {
			// Exhausted before reaching i: the previous entry is final.
			break
		}
		ref = append(ref, chartKey(st))
		if i >= maxIters || (st.Report != nil && st.Report.Exhausted) {
			break
		}
	}
	if len(ref) < 2 {
		t.Fatalf("reference run for seed %d produced only %d boundary states", spec.Seed, len(ref))
	}
	return ref
}

// forceIdle backdates a session's idle clock so the next Sweep treats
// it as TTL-expired — the harness's lever for forcing eviction at an
// iteration boundary of its choosing.
func forceIdle(reg *Registry, id string) {
	reg.mu.Lock()
	s := reg.sessions[id]
	reg.mu.Unlock()
	if s != nil {
		s.mu.Lock()
		s.lastActive = time.Now().Add(-2 * time.Hour)
		s.mu.Unlock()
	}
}

// armStorm arms the deterministic fault storm: every persistence and
// restore failpoint fires on a fixed schedule, so a given operation
// sequence always hits the same faults.
func armStorm() {
	fault.ArmError("service/persist.write", nil, fault.Schedule{Calls: []int{2}, Every: 9})
	fault.ArmError("service/persist.sync", nil, fault.Schedule{Every: 13})
	fault.ArmCrash("service/persist.rename", fault.Schedule{Calls: []int{5}})
	fault.ArmError("service/persist.read", nil, fault.Schedule{Every: 7})
	fault.ArmError("service/restore.replay", nil, fault.Schedule{Every: 5})
	fault.ArmDelay("service/restore.build", 2*time.Millisecond, fault.Schedule{Every: 3})
	fault.ArmError("service/answer.deliver", nil, fault.Schedule{Every: 6})
	fault.ArmError("service/pool.submit", nil, fault.Schedule{Every: 17})
}

// killRegistry simulates the process dying with sessions live: every
// persist during Shutdown fails, so disk keeps exactly what earlier
// iteration-boundary persists made durable, and all goroutines are
// reclaimed (unlike a real kill, the test process must stay leak-free
// under -race).
func killRegistry(reg *Registry) {
	disarm := fault.ArmError("service/persist.write",
		errors.New("injected kill: process died before this write"), fault.Schedule{Always: true})
	defer disarm()
	reg.Shutdown()
}

// churn runs one disposable-client loop: create, iterate, poll, close,
// list — the background traffic the protected sessions must survive.
// Every error a client could plausibly see under load (busy, overload,
// injected faults) is tolerated; only the protected sessions carry
// assertions.
func churn(reg *Registry, seed int64, stop <-chan struct{}) {
	for n := int64(0); ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		id, err := reg.Create(Spec{Dataset: "D1", Scale: 0.004, Seed: 1000 + seed*100 + n%7, Auto: true})
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		_ = reg.Iterate(id, "")
		for i := 0; i < 50; i++ {
			st, err := reg.State(id)
			if err != nil || !st.Running {
				break
			}
			select {
			case <-stop:
				_ = reg.Close(id)
				return
			default:
			}
			time.Sleep(2 * time.Millisecond)
		}
		reg.List()
		_ = reg.Close(id)
	}
}

func newChaosRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	return NewRegistry(Config{
		MaxSessions:   8,
		Workers:       4,
		SweepInterval: time.Hour, // sweeps are driven explicitly, at boundaries
		IdleTTL:       time.Hour,
		SnapshotDir:   dir,
		Logf:          t.Logf,
	})
}

// TestChaosKillRestart is the kill-restart chaos loop. Per seed: two
// protected sessions (one oracle-answered, one interactive) advance
// through kill/restart cycles under a fault storm and concurrent
// churn, with a forced boundary eviction each cycle; after every
// restart their recovered state must be a bit-exact prefix of the
// fault-free reference run, and a final fault-free registry must drive
// both to the reference's last boundary chart.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() && testing.Verbose() {
		t.Log("short mode: one seed")
	}
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRun(t, seed)
		})
	}
}

func chaosRun(t *testing.T, seed int64) {
	defer fault.Reset()
	const maxIters = 4
	specAuto := testSpec(seed, true)
	specInter := testSpec(seed+50, false)
	refAuto := referenceCharts(t, specAuto, maxIters, false)
	refInter := referenceCharts(t, specInter, maxIters, true)
	t.Logf("reference runs: auto %d boundaries, interactive %d boundaries", len(refAuto), len(refInter))

	dir := t.TempDir()
	type protected struct {
		id          string
		spec        Spec
		interactive bool
		ref         []string
		achieved    int // iterations committed before the last kill
	}
	prots := []*protected{
		{spec: specAuto, ref: refAuto},
		{spec: specInter, interactive: true, ref: refInter},
	}

	const cycles = 2
	for cycle := 0; cycle < cycles; cycle++ {
		fault.Reset()
		reg := newChaosRegistry(t, dir)
		if cycle == 0 {
			for _, p := range prots {
				id, err := reg.Create(p.spec)
				if err != nil {
					t.Fatalf("cycle %d: create protected: %v", cycle, err)
				}
				p.id = id
			}
		} else {
			reg.RestoreAll()
			// Recovery invariant: what came back is a bit-exact prefix of
			// the fault-free run, no further along than what was achieved.
			for _, p := range prots {
				st, err := stateRetry(reg, p.id)
				if err != nil {
					t.Fatalf("cycle %d: protected session %s lost across kill: %v", cycle, p.id, err)
				}
				if st.Iteration > p.achieved {
					t.Fatalf("cycle %d: session %s recovered AHEAD of its pre-kill state (%d > %d)",
						cycle, p.id, st.Iteration, p.achieved)
				}
				if got, want := chartKey(st), p.ref[st.Iteration]; got != want {
					t.Fatalf("cycle %d: session %s recovered to a diverged state at iteration %d:\n got %s\nwant %s",
						cycle, p.id, st.Iteration, got, want)
				}
				t.Logf("cycle %d: session %s recovered at iteration %d/%d", cycle, p.id, st.Iteration, len(p.ref)-1)
			}
		}

		armStorm()
		stop := make(chan struct{})
		var churners sync.WaitGroup
		for c := int64(0); c < 3; c++ {
			churners.Add(1)
			go func(c int64) {
				defer churners.Done()
				churn(reg, seed*10+c, stop)
			}(c)
		}
		driveErrs := make(chan error, len(prots))
		var drivers sync.WaitGroup
		for _, p := range prots {
			target := min((cycle+1)*2, len(p.ref)-1)
			drivers.Add(1)
			go func(p *protected, target int) {
				defer drivers.Done()
				driveErrs <- driveTo(reg, p.id, target, p.interactive, p.ref)
			}(p, target)
		}
		drivers.Wait()
		close(stop)
		churners.Wait()
		close(driveErrs)
		for err := range driveErrs {
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}

		// Forced eviction at the boundary, still under the storm: a
		// session whose persist fails is kept live (keep-alive path), a
		// persisted one restores lazily — either way the chart must be
		// exactly what it was before the eviction.
		for _, p := range prots {
			forceIdle(reg, p.id)
		}
		reg.Sweep()
		for _, p := range prots {
			st, err := stateRetry(reg, p.id)
			if err != nil {
				t.Fatalf("cycle %d: session %s lost across boundary eviction: %v", cycle, p.id, err)
			}
			if got, want := chartKey(st), p.ref[st.Iteration]; got != want {
				t.Fatalf("cycle %d: session %s diverged across eviction at iteration %d:\n got %s\nwant %s",
					cycle, p.id, st.Iteration, got, want)
			}
			p.achieved = st.Iteration
		}

		fault.Reset()
		killRegistry(reg)
	}

	// Epilogue: a healthy registry restores the survivors and finishes
	// the job — the full fault history must leave both sessions able to
	// reach the reference run's final chart, bit for bit.
	fault.Reset()
	reg := newChaosRegistry(t, dir)
	defer reg.Shutdown()
	reg.RestoreAll()
	for _, p := range prots {
		target := len(p.ref) - 1
		if err := driveTo(reg, p.id, target, p.interactive, p.ref); err != nil {
			t.Fatalf("final drive: %v", err)
		}
		st, err := stateRetry(reg, p.id)
		if err != nil {
			t.Fatal(err)
		}
		exhausted := st.Report != nil && st.Report.Exhausted
		if st.Iteration != target && !exhausted {
			t.Fatalf("final drive: session %s stopped at iteration %d, want %d", p.id, st.Iteration, target)
		}
		if got, want := chartKey(st), p.ref[st.Iteration]; got != want {
			t.Fatalf("final state of %s diverged from fault-free run:\n got %s\nwant %s", p.id, got, want)
		}
		t.Logf("final: session %s at iteration %d matches the fault-free run bit for bit", p.id, st.Iteration)
	}
}
