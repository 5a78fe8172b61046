package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNoOp(t *testing.T) {
	Reset()
	if err := Point("never/armed"); err != nil {
		t.Fatalf("disarmed point returned %v", err)
	}
	if got := Hits("never/armed"); got != 0 {
		t.Fatalf("Hits on disarmed point = %d, want 0", got)
	}
	if names := Armed(); len(names) != 0 {
		t.Fatalf("Armed() = %v, want empty", names)
	}
}

func TestErrorSchedules(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")

	// Fail exactly the 2nd call.
	ArmError("p/second", boom, Schedule{Calls: []int{2}})
	results := make([]error, 4)
	for i := range results {
		results[i] = Point("p/second")
	}
	for i, err := range results {
		want := i == 1
		if (err != nil) != want {
			t.Errorf("call %d: err = %v, want fire=%v", i+1, err, want)
		}
	}
	if !errors.Is(results[1], boom) {
		t.Errorf("fired error = %v, want boom", results[1])
	}
	if got := Hits("p/second"); got != 4 {
		t.Errorf("Hits = %d, want 4", got)
	}

	// Fail every 3rd call.
	ArmError("p/third", nil, Schedule{Every: 3})
	var fired []int
	for i := 1; i <= 9; i++ {
		if Point("p/third") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Errorf("every-3 fired on calls %v, want [3 6 9]", fired)
	}

	// Always.
	ArmError("p/always", boom, Schedule{Always: true})
	for i := 0; i < 3; i++ {
		if Point("p/always") == nil {
			t.Fatal("always schedule did not fire")
		}
	}
}

func TestRearmResetsCounter(t *testing.T) {
	defer Reset()
	ArmError("p/rearm", nil, Schedule{Calls: []int{1}})
	if Point("p/rearm") == nil {
		t.Fatal("1st call after arm did not fire")
	}
	if Point("p/rearm") != nil {
		t.Fatal("2nd call fired")
	}
	ArmError("p/rearm", nil, Schedule{Calls: []int{1}})
	if Point("p/rearm") == nil {
		t.Fatal("1st call after re-arm did not fire (counter not reset)")
	}
}

func TestDelayMode(t *testing.T) {
	defer Reset()
	ArmDelay("p/slow", 30*time.Millisecond, Schedule{Always: true})
	start := time.Now()
	if err := Point("p/slow"); err != nil {
		t.Fatalf("delay mode returned error %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay point slept only %v", d)
	}
}

func TestCrashModeAndRecover(t *testing.T) {
	defer Reset()
	ArmCrash("p/crash", Schedule{Always: true})

	op := func() (err error) {
		defer RecoverCrash(&err)
		if e := Point("p/crash"); e != nil {
			return e
		}
		t.Fatal("crash point returned instead of panicking")
		return nil
	}
	err := op()
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("recovered crash = %v, want ErrCrash", err)
	}

	// Unrelated panics pass through RecoverCrash untouched.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("real panic was swallowed")
			}
		}()
		var e error
		defer RecoverCrash(&e)
		panic("real bug")
	}()
}

func TestDisarmAndReset(t *testing.T) {
	cleanup := ArmError("p/tmp", nil, Schedule{Always: true})
	if Point("p/tmp") == nil {
		t.Fatal("armed point did not fire")
	}
	cleanup()
	if Point("p/tmp") != nil {
		t.Fatal("disarmed point fired")
	}
	ArmError("p/a", nil, Schedule{Always: true})
	ArmError("p/b", nil, Schedule{Always: true})
	if got := Armed(); len(got) != 2 || got[0] != "p/a" || got[1] != "p/b" {
		t.Fatalf("Armed() = %v", got)
	}
	Reset()
	if Point("p/a") != nil || Point("p/b") != nil {
		t.Fatal("Reset left points armed")
	}
	if armed.Load() != 0 {
		t.Fatalf("armed count after Reset = %d", armed.Load())
	}
}

func TestParseSpec(t *testing.T) {
	defer Reset()
	spec := "service/persist.rename=error:disk gone@2; service/persist.sync=delay:1ms@every3;service/persist.write=crash@1,4"
	if err := ParseSpec(spec); err != nil {
		t.Fatal(err)
	}
	if got := Armed(); len(got) != 3 {
		t.Fatalf("Armed() = %v, want 3 points", got)
	}
	if Point("service/persist.rename") != nil {
		t.Fatal("rename fired on call 1")
	}
	if err := Point("service/persist.rename"); err == nil || err.Error() != "disk gone" {
		t.Fatalf("rename call 2 = %v, want custom message", err)
	}
	var err error
	func() {
		defer RecoverCrash(&err)
		_ = Point("service/persist.write")
	}()
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("crash clause call 1 = %v, want ErrCrash", err)
	}

	bad := []string{
		"no-equals",
		"=error",
		"p=frobnicate",
		"p=delay",          // delay without duration
		"p=delay:nonsense", // unparsable duration
		"p=error@every0",   // bad schedule
		"p=error@zero,calls@x",
	}
	for _, spec := range bad {
		Reset()
		if err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
		if n := len(Armed()); n != 0 {
			t.Errorf("ParseSpec(%q) left %d points armed after failing", spec, n)
		}
	}
}

// TestConcurrentPoints hammers a mixed armed/disarmed set from many
// goroutines; run with -race.
func TestConcurrentPoints(t *testing.T) {
	defer Reset()
	ArmError("p/conc", nil, Schedule{Every: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = Point("p/conc")
				_ = Point("p/not-armed")
			}
		}()
	}
	wg.Wait()
	if got := Hits("p/conc"); got != 4000 {
		t.Fatalf("Hits = %d, want 4000", got)
	}
}

// BenchmarkPointDisarmed documents the disarmed fast path: one atomic
// load, no allocation.
func BenchmarkPointDisarmed(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Point("service/persist.write") != nil {
			b.Fatal("fired")
		}
	}
}
