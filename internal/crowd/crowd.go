// Package crowd simulates the crowdsourcing substrate the paper's
// evaluation rests on: its ground truth was "obtained via crowdsourcing
// [23], [8]" — many imperfect workers answering each question, with
// aggregation recovering a near-expert answer. The package provides
//
//   - Worker: one annotator with an individual accuracy, answering from
//     ground truth with that reliability,
//   - Panel: a pool of workers that answers each question by majority
//     vote over a sample of k workers (boolean questions) or by the
//     median (numeric questions), and implements pipeline.User so a
//     whole crowd can drive a cleaning session.
package crowd

import (
	"math/rand"
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/oracle"
)

// Worker is one simulated annotator. Accuracy is the probability a
// boolean answer is correct; numeric answers are corrupted with the
// complement probability.
type Worker struct {
	ID       int
	Accuracy float64
	oracle   *oracle.Oracle
	rng      *rand.Rand
}

// answerBool returns the truth with probability Accuracy.
func (w *Worker) answerBool(truth bool) bool {
	if w.rng.Float64() < w.Accuracy {
		return truth
	}
	return !truth
}

// answerFloat returns the truth or a perturbed value.
func (w *Worker) answerFloat(truth float64) float64 {
	if w.rng.Float64() < w.Accuracy {
		return truth
	}
	switch w.rng.Intn(3) {
	case 0:
		return truth * 10
	case 1:
		return truth / 2
	default:
		return truth + 50*(w.rng.Float64()-0.5)
	}
}

// Panel is a pool of workers answering questions by aggregation. It
// implements pipeline.User.
type Panel struct {
	Workers []*Worker
	// K is how many workers answer each question (default 3, like the
	// common 3-vote crowdsourcing deployment).
	K   int
	rng *rand.Rand
}

// NewPanel builds n workers over the given ground truth. Worker
// accuracies are drawn uniformly from [minAcc, maxAcc].
func NewPanel(truth *oracle.GroundTruth, n int, minAcc, maxAcc float64, seed int64) *Panel {
	rng := rand.New(rand.NewSource(seed))
	p := &Panel{K: 3, rng: rng}
	for i := 0; i < n; i++ {
		acc := minAcc + (maxAcc-minAcc)*rng.Float64()
		p.Workers = append(p.Workers, &Worker{
			ID:       i,
			Accuracy: acc,
			oracle:   oracle.New(truth, seed+int64(i)*101),
			rng:      rand.New(rand.NewSource(seed + int64(i)*211)),
		})
	}
	return p
}

// sample picks K distinct workers.
func (p *Panel) sample() []*Worker {
	k := p.K
	if k <= 0 {
		k = 3
	}
	if k > len(p.Workers) {
		k = len(p.Workers)
	}
	idx := p.rng.Perm(len(p.Workers))[:k]
	out := make([]*Worker, k)
	for i, j := range idx {
		out[i] = p.Workers[j]
	}
	return out
}

// majority aggregates boolean votes.
func majority(votes []bool) bool {
	yes := 0
	for _, v := range votes {
		if v {
			yes++
		}
	}
	return yes*2 > len(votes)
}

// median aggregates numeric answers.
func median(vals []float64) float64 {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// AnswerT implements pipeline.User by majority vote.
func (p *Panel) AnswerT(a, b dataset.TupleID) (bool, bool) {
	workers := p.sample()
	if len(workers) == 0 {
		return false, false
	}
	votes := make([]bool, 0, len(workers))
	for _, w := range workers {
		truth, ok := w.oracle.AnswerT(a, b)
		if !ok {
			continue
		}
		votes = append(votes, w.answerBool(truth))
	}
	if len(votes) == 0 {
		return false, false
	}
	return majority(votes), true
}

// AnswerA implements pipeline.User by majority vote.
func (p *Panel) AnswerA(column, v1, v2 string) (bool, bool) {
	workers := p.sample()
	if len(workers) == 0 {
		return false, false
	}
	votes := make([]bool, 0, len(workers))
	for _, w := range workers {
		truth, ok := w.oracle.AnswerA(column, v1, v2)
		if !ok {
			continue
		}
		votes = append(votes, w.answerBool(truth))
	}
	if len(votes) == 0 {
		return false, false
	}
	return majority(votes), true
}

// AnswerM implements pipeline.User by the median of worker values.
func (p *Panel) AnswerM(column string, id dataset.TupleID) (float64, bool) {
	workers := p.sample()
	vals := make([]float64, 0, len(workers))
	for _, w := range workers {
		truth, ok := w.oracle.AnswerM(column, id)
		if !ok {
			continue
		}
		vals = append(vals, w.answerFloat(truth))
	}
	if len(vals) == 0 {
		return 0, false
	}
	return median(vals), true
}

// AnswerO implements pipeline.User: majority on the verdict, median on
// the repair value among workers voting "outlier".
func (p *Panel) AnswerO(column string, id dataset.TupleID, current float64) (bool, float64, bool) {
	workers := p.sample()
	votes := make([]bool, 0, len(workers))
	vals := make([]float64, 0, len(workers))
	for _, w := range workers {
		isOut, truth, ok := w.oracle.AnswerO(column, id, current)
		if !ok {
			continue
		}
		vote := w.answerBool(isOut)
		votes = append(votes, vote)
		if vote {
			vals = append(vals, w.answerFloat(truth))
		}
	}
	if len(votes) == 0 {
		return false, 0, false
	}
	if !majority(votes) {
		return false, current, true
	}
	if len(vals) == 0 {
		return false, current, true
	}
	return true, median(vals), true
}
