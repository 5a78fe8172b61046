// Package benefit implements the estimation-based benefit model of §V-A
// (Definition 5.1): the expected benefit of a cleaning question is the
// probability-weighted visualization distance between the current chart
// and the chart that would result from each possible user answer,
//
//	B(G) = Σ_edges (P^Y·dist^Y + P^N·dist^N)  (Eq. 5)
//
// specialized per question type as B_T (Eq. 6), B_A = P^Y·dist^Y,
// B_M = dist^Y and B_O = dist^Y.
//
// The estimator is decoupled from the cleaning pipeline through the
// Price callback: the pipeline knows how far a hypothetical answer
// would move its charts; this package canonicalizes and memoizes those
// distances and weighs them into question benefits.
package benefit

import (
	"sync"
	"sync/atomic"

	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/par"
)

// HypKind enumerates the hypothetical user answers the model prices.
type HypKind int

const (
	// TConfirm: the user confirms a tuple pair as the same entity.
	TConfirm HypKind = iota
	// TSplit: the user splits a tuple pair (not the same entity).
	TSplit
	// AApprove: the user approves an attribute-value transformation.
	AApprove
	// MImpute: the user accepts a missing-value imputation.
	MImpute
	// ORepair: the user accepts an outlier repair.
	ORepair
)

// String names the hypothesis kind for logs and debug output.
func (k HypKind) String() string {
	switch k {
	case TConfirm:
		return "T-confirm"
	case TSplit:
		return "T-split"
	case AApprove:
		return "A-approve"
	case MImpute:
		return "M-impute"
	case ORepair:
		return "O-repair"
	default:
		return "unknown"
	}
}

// Hypothesis is one hypothetical answer. The fields used depend on Kind:
// Pair for T questions, Column/V1/V2 for A questions, ID/Value for M/O.
type Hypothesis struct {
	Kind   HypKind
	Pair   em.Pair
	Column string
	V1     string
	V2     string
	ID     dataset.TupleID
	Value  float64
}

// Estimator prices questions. Price returns the distance dist^Y or
// dist^N of one hypothetical answer: how far it would move the charts,
// summed over every view (the pipeline's delta pricer). An inapplicable
// answer prices as zero.
//
// Workers bounds the fan-out of Annotate: < 1 selects GOMAXPROCS, 1 is
// strictly sequential. When Workers > 1 Price must be safe for
// concurrent calls (the pipeline freezes its standardizers and prices
// M/O repairs through cell overlays to guarantee this).
//
// Priced hypotheses are memoized for the estimator's lifetime, keyed by
// canonical Hypothesis: within one iteration a hypothesis is a pure
// function of session state, so the same question appearing on several
// edges (an A-question's value pair typically does) is priced once. An
// estimator is therefore valid for exactly one iteration — session
// state changes invalidate the cache, so build a fresh one per
// iteration.
type Estimator struct {
	Price   func(h Hypothesis) float64
	Workers int

	mu    sync.Mutex
	memo  map[Hypothesis]*memoEntry
	evals atomic.Int64 // unique Price invocations (cache misses)
	calls atomic.Int64 // total dist() requests (hits = calls − evals)
}

// Stats is an estimator's work accounting: how many prices were
// requested and how many unique hypotheses were actually evaluated (the
// rest were memo hits). All three are deterministic for a given session
// state — they do not depend on the worker count.
type Stats struct {
	// Calls counts dist() requests across all edges and repairs.
	Calls int
	// Evals counts unique hypotheses evaluated (memo cache misses).
	Evals int
	// MemoHits is Calls − Evals: prices served from the memo.
	MemoHits int
}

// Stats reports the estimator's accumulated work accounting.
func (e *Estimator) Stats() Stats {
	calls := int(e.calls.Load())
	evals := int(e.evals.Load())
	return Stats{Calls: calls, Evals: evals, MemoHits: calls - evals}
}

// memoEntry is one memoized price. The sync.Once guarantees a single
// Price evaluation per canonical hypothesis even when several workers
// request it concurrently; losers block until the value is set.
type memoEntry struct {
	once sync.Once
	val  float64
}

// canonicalize normalizes the order-insensitive fields so symmetric
// hypotheses share one memo slot: the tuple pair of a T-question and the
// value pair of an A-question (Standardizer.Approve is a symmetric
// union, so Approve(v1,v2) and Approve(v2,v1) price identically).
func canonicalize(h Hypothesis) Hypothesis {
	switch h.Kind {
	case TConfirm, TSplit:
		h.Pair = em.MakePair(h.Pair.A, h.Pair.B)
	case AApprove:
		if h.V1 > h.V2 {
			h.V1, h.V2 = h.V2, h.V1
		}
	}
	return h
}

// dist prices one hypothesis: the visualization distance the answer
// would cause. Bigger distance = dirtier chart fixed = more benefit.
// Prices are memoized; see Estimator.
func (e *Estimator) dist(h Hypothesis) float64 {
	h = canonicalize(h)
	e.calls.Add(1)
	e.mu.Lock()
	if e.memo == nil {
		e.memo = make(map[Hypothesis]*memoEntry)
	}
	ent := e.memo[h]
	if ent == nil {
		ent = &memoEntry{}
		e.memo[h] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		e.evals.Add(1)
		ent.val = e.Price(h)
	})
	return ent.val
}

// Evals reports the number of hypotheses actually priced so far (memo
// cache misses). The experiment harness reports this as benefit-model
// work; it is deterministic — the set of unique hypotheses priced does
// not depend on the worker count.
func (e *Estimator) Evals() int { return int(e.evals.Load()) }

// TBenefit computes Eq. 6 for a T-question: pY·dist^Y + (1−pY)·dist^N,
// where pY is the current model's matching probability.
func (e *Estimator) TBenefit(pair em.Pair, pY float64) float64 {
	distY := e.dist(Hypothesis{Kind: TConfirm, Pair: pair})
	distN := e.dist(Hypothesis{Kind: TSplit, Pair: pair})
	return pY*distY + (1-pY)*distN
}

// ABenefit computes the A-question benefit: pY·dist^Y; a rejected
// A-question carries no visualization benefit (§V-A (2) case II).
func (e *Estimator) ABenefit(column, v1, v2 string, pY float64) float64 {
	return pY * e.dist(Hypothesis{Kind: AApprove, Column: column, V1: v1, V2: v2})
}

// MBenefit computes the M-question benefit: dist^Y of the imputation.
func (e *Estimator) MBenefit(id dataset.TupleID, value float64) float64 {
	return e.dist(Hypothesis{Kind: MImpute, ID: id, Value: value})
}

// OBenefit computes the O-question benefit: dist^Y of the repair.
func (e *Estimator) OBenefit(id dataset.TupleID, value float64) float64 {
	return e.dist(Hypothesis{Kind: ORepair, ID: id, Value: value})
}

// EdgeBenefit prices one ERG edge: B_T (if the edge carries a T-question)
// plus B_A (if it carries an A-question).
func (e *Estimator) EdgeBenefit(edge *erg.Edge) float64 {
	total := 0.0
	if edge.HasT {
		total += e.TBenefit(em.MakePair(edge.A, edge.B), edge.PT)
	}
	if edge.HasA {
		total += e.ABenefit(edge.ACol, edge.AV1, edge.AV2, edge.PA)
	}
	return total
}

// RepairBenefit prices one vertex repair: B_M or B_O.
func (e *Estimator) RepairBenefit(r *erg.VertexRepair) float64 {
	if r.Kind == erg.Missing {
		return e.MBenefit(r.ID, r.Suggested)
	}
	return e.OBenefit(r.ID, r.Suggested)
}

// Annotate fills the Benefit fields of every edge and vertex repair of
// the ERG, making it ready for CQG selection, fanning the per-edge and
// per-repair pricing out across Workers goroutines. Each work item
// writes only its own edge's (or repair's) Benefit field — the
// index-write rule — so the annotated ERG is bit-identical to a
// sequential run regardless of the worker count. It returns the number
// of hypotheses priced (the experiment harness reports this as
// benefit-model work); memoization makes this the count of unique
// hypotheses, not of questions.
func (e *Estimator) Annotate(g *erg.Graph) int {
	before := e.evals.Load()
	nEdges := g.NumEdges()
	repairs := g.Repairs() // ordered by tuple id
	par.ForEachIndex(e.Workers, nEdges+len(repairs), func(i int) {
		if i < nEdges {
			edge := g.Edge(i)
			edge.Benefit = e.EdgeBenefit(edge)
			return
		}
		r := repairs[i-nEdges]
		r.Benefit = e.RepairBenefit(r)
	})
	return int(e.evals.Load() - before)
}
