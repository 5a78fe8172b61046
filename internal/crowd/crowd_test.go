package crowd

import (
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/oracle"
)

func testTruth() *oracle.GroundTruth {
	return &oracle.GroundTruth{
		Entity: map[dataset.TupleID]int{1: 100, 2: 100, 3: 101},
		Canonical: map[string]map[string]string{
			"Venue": {"SIGMOD": "SIGMOD", "ACM SIGMOD": "SIGMOD", "VLDB": "VLDB"},
		},
		TrueY: map[string]map[dataset.TupleID]float64{
			"Citations": {1: 174, 2: 174, 3: 15},
		},
	}
}

func TestPanelMajorityRecoversTruth(t *testing.T) {
	// 9 workers at 80% accuracy, 5 votes per question: majority should
	// answer nearly perfectly; sample many questions and count errors.
	p := NewPanel(testTruth(), 9, 0.8, 0.8, 1)
	p.K = 5
	wrong := 0
	const n = 400
	for i := 0; i < n; i++ {
		if m, ok := p.AnswerT(1, 2); !ok || !m {
			wrong++
		}
		if m, ok := p.AnswerT(1, 3); !ok || m {
			wrong++
		}
	}
	// P(majority of 5 wrong at 80% accuracy) ≈ 5.8%; allow sampling slack.
	if rate := float64(wrong) / (2 * n); rate > 0.09 {
		t.Fatalf("majority error rate %v, want < 0.09", rate)
	}
	// And the panel must beat a single worker's 20% error rate.
	if rate := float64(wrong) / (2 * n); rate > 0.15 {
		t.Fatalf("panel no better than one worker: %v", rate)
	}
}

func TestPanelBadWorkersDegrade(t *testing.T) {
	good := NewPanel(testTruth(), 9, 0.95, 0.95, 2)
	bad := NewPanel(testTruth(), 9, 0.55, 0.55, 2)
	errs := func(p *Panel) int {
		wrong := 0
		for i := 0; i < 300; i++ {
			if m, _ := p.AnswerT(1, 2); !m {
				wrong++
			}
		}
		return wrong
	}
	if errs(good) >= errs(bad) {
		t.Fatal("high-accuracy panel should beat low-accuracy panel")
	}
}

func TestPanelNumericAggregation(t *testing.T) {
	p := NewPanel(testTruth(), 9, 0.9, 0.9, 3)
	p.K = 5
	hits := 0
	for i := 0; i < 200; i++ {
		v, ok := p.AnswerM("Citations", 1)
		if ok && v == 174 {
			hits++
		}
	}
	if hits < 150 {
		t.Fatalf("median recovered truth only %d/200 times", hits)
	}
}

func TestPanelAnswerO(t *testing.T) {
	p := NewPanel(testTruth(), 9, 0.95, 0.95, 4)
	p.K = 5
	outVotes, fixes := 0, 0
	for i := 0; i < 100; i++ {
		isOut, v, ok := p.AnswerO("Citations", 1, 1740)
		if !ok {
			continue
		}
		if isOut {
			outVotes++
			if v == 174 {
				fixes++
			}
		}
	}
	if outVotes < 90 || fixes < 80 {
		t.Fatalf("outlier consensus weak: %d verdicts, %d correct fixes", outVotes, fixes)
	}
	// Correct values should rarely be flagged.
	flagged := 0
	for i := 0; i < 100; i++ {
		if isOut, _, _ := p.AnswerO("Citations", 1, 174); isOut {
			flagged++
		}
	}
	if flagged > 10 {
		t.Fatalf("correct value flagged %d/100 times", flagged)
	}
}

func TestPanelKClamps(t *testing.T) {
	p := NewPanel(testTruth(), 2, 0.9, 0.9, 5)
	p.K = 10 // more than workers: must clamp, not panic
	if _, ok := p.AnswerT(1, 2); !ok {
		t.Fatal("clamped panel failed to answer")
	}
}
