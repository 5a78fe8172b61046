package obs

import (
	"testing"
	"time"
)

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer(4)
	tr.Record("x", "", time.Unix(0, 0), time.Second, nil)
	if got := tr.Recent(0); len(got) != 0 {
		t.Fatalf("disabled tracer buffered %d traces", len(got))
	}
}

func TestRingEvictionAndOrder(t *testing.T) {
	tr := NewTracer(3)
	tr.SetEnabled(true)
	for i := 0; i < 5; i++ {
		tr.Record("t", string(rune('a'+i)), time.Unix(int64(i), 0), time.Duration(i), nil)
	}
	got := tr.Recent(0)
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	// Newest first: seq 5, 4, 3.
	for i, wantSeq := range []uint64{5, 4, 3} {
		if got[i].Seq != wantSeq {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, got[i].Seq, wantSeq)
		}
	}
	if limited := tr.Recent(2); len(limited) != 2 || limited[0].Seq != 5 {
		t.Fatalf("Recent(2) = %+v", limited)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := NewTracer(8)
	tr.SetEnabled(true)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				tr.Record("w", "", time.Now(), time.Millisecond, []Phase{{Name: "p", DurationNS: 1}})
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	got := tr.Recent(0)
	if len(got) != 8 {
		t.Fatalf("ring holds %d, want 8", len(got))
	}
	seen := map[uint64]bool{}
	for _, trc := range got {
		if seen[trc.Seq] {
			t.Fatalf("duplicate seq %d", trc.Seq)
		}
		seen[trc.Seq] = true
	}
}
