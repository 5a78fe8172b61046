package pipeline

import (
	"context"
	"sort"
	"time"

	"visclean/internal/erg"
)

// runSingleIteration implements the paper's Single baseline (§VII): in
// each iteration, instead of one CQG, ask m single questions in
// isolation — m/4 drawn from each of Q_T, Q_A, Q_M and Q_O, most
// beneficial first. m is the number of questions a k-vertex CQG would
// carry (k−1 edges plus one vertex repair ≈ k), keeping the unit cost
// comparable per the paper's fairness argument.
func (s *Session) runSingleIteration(ctx context.Context, user User, qs questionSet, rep *Report) error {
	m := s.cfg.K
	if m < 4 {
		m = 4
	}
	perKind := m / 4

	s.freezeShared()
	est, err := s.newEstimator(1)
	if err != nil {
		return err
	}

	// Each single question is a one-question edge or repair, asked
	// through the same askEdge/askRepair as a CQG's.
	type scoredQ struct {
		kind    int // 0=T 1=A 2=M 3=O
		edge    erg.Edge
		repair  *erg.VertexRepair // set for M and O
		benefit float64
	}
	benefitStart := time.Now()
	var pool []scoredQ
	for _, sp := range qs.T {
		e := erg.Edge{A: sp.Pair.A, B: sp.Pair.B, HasT: true}
		pool = append(pool, scoredQ{kind: 0, edge: e, benefit: est.TBenefit(sp.Pair, sp.Prob)})
	}
	for _, a := range qs.A {
		e := erg.Edge{HasA: true, ACol: a.name, AV1: a.v1, AV2: a.v2}
		pool = append(pool, scoredQ{kind: 1, edge: e, benefit: est.ABenefit(a.name, a.v1, a.v2, a.sim)})
	}
	for _, mq := range qs.M {
		r := &erg.VertexRepair{ID: mq.ID, Kind: erg.Missing}
		pool = append(pool, scoredQ{kind: 2, repair: r, benefit: est.MBenefit(mq.ID, mq.Value)})
	}
	for _, o := range qs.O {
		r := &erg.VertexRepair{ID: o.ID, Kind: erg.Outlier, Current: o.Value}
		pool = append(pool, scoredQ{kind: 3, repair: r, benefit: est.OBenefit(o.ID, o.Repair)})
	}
	rep.Timings.Benefit = time.Since(benefitStart)
	rep.noteBenefit(est.Stats())
	if len(pool) == 0 {
		rep.Exhausted = true
		return nil
	}
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].benefit > pool[b].benefit })

	// Take up to perKind from each kind, then fill remaining slots with
	// the globally best leftovers.
	taken := make([]scoredQ, 0, m)
	counts := [4]int{}
	var leftovers []scoredQ
	for _, q := range pool {
		if counts[q.kind] < perKind {
			taken = append(taken, q)
			counts[q.kind]++
		} else {
			leftovers = append(leftovers, q)
		}
	}
	for _, q := range leftovers {
		if len(taken) >= m {
			break
		}
		taken = append(taken, q)
	}
	if len(taken) > m {
		taken = taken[:m]
	}

	for _, q := range taken {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep.EstimatedBenefit += q.benefit
		if q.repair != nil {
			s.askRepair(user, q.repair, rep)
		} else {
			s.askEdge(user, q.edge, rep)
		}
	}
	return nil
}
