package pipeline

// Incremental detection (ROADMAP item 1). PR 3 made benefit pricing
// incremental; this file extends the same philosophy upstream into the
// four §IV detectors, which previously rebuilt their similarity-join
// postings, kNN neighbour lists and ERG scan inputs from scratch in
// every iteration even though a composite question repairs only a
// handful of cells.
//
// The contract mirrors the deltaPricer's:
//
//   - bit-identical results: every question a maintained structure
//     serves is the very value the from-scratch detectors
//     (goldenrec.Candidates, impute.NewWithIndex) would produce (exact
//     float equality), enforced by the detect-equivalence suite, which
//     holds them against each other through questionsFrom;
//   - automatic fallback on any maintenance miss: a tuple whose cached
//     neighbour list was invalidated (or never built) is recomputed
//     from the live index, and an eligibility revocation — which the
//     apply paths never produce, but is guarded anyway — flushes the
//     whole cache;
//   - accept/fallback counters surfaced through internal/obs alongside
//     the deltaPricer stats (visclean_detect_* in DESIGN.md §5).
//
// What is maintained, and why each maintenance rule is exact:
//
// Q_A — the expensive half of Algorithm 1 is Strategy 2's string
// similarity join over an attribute column's distinct values. Those
// values never change during cleaning (repairs rewrite only the measure
// column; standardization is tracked logically in Session.std), so the
// join runs once per column into a goldenrec.SimIndex and each
// iteration only re-filters its pairs against the current clustering.
//
// Q_M/Q_O — per-tuple top-k neighbour lists over the shared kNN token
// index are cached across iterations. A cached list stays the exact
// top-k under two invalidation rules: (1) rows whose token sets changed
// (an approved synonym changed a value's canonical form; see
// Session.maintainKnnIndex) poison every list they appear in — as
// target or neighbour — which is then dropped and lazily recomputed;
// (2) rows that became repair-eligible (their measure cell gained a
// value via an M/O repair) are insertion-tried into every surviving
// list, which is exact because the eligible set only ever grows.
// Suggested values are recomputed from live measure cells at serve
// time, in cached neighbour rank order — the same left-to-right float
// summation the imputer performs — so measure repairs on neighbouring
// rows never stale a list (token sets exclude the measure column, so
// rankings are unaffected).
//
// ERG scans — candidate-pair-by-values lookup and isolated-vertex
// attachment iterate the full blocking candidate list per iteration;
// both depend only on session-immutable data (candidate pairs and
// attribute cells) and are answered from a static em.CandidateIndex,
// the value lookup walking the candidates incident to the rows that
// carry the rarer value (Session.valueRows).

import (
	"slices"

	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/impute"
	"visclean/internal/knn"
)

// detectStats is one iteration's incremental-detection accounting,
// copied into the Report after each detect phase.
type detectStats struct {
	// accepts counts neighbour-list lookups served from the maintained
	// cache; fallbacks counts lookups recomputed from the live index
	// (first sight or maintenance miss).
	accepts   int
	fallbacks int
}

// detectDelta owns the incrementally maintained detection state of one
// session. Created lazily on the session's first detect.
type detectDelta struct {
	s *Session

	// simIdx holds one precomputed similarity join per A-column.
	simIdx map[int]*goldenrec.SimIndex

	// candIdx is the static inverted candidate index for ERG scans.
	candIdx *em.CandidateIndex

	// neigh caches per-tuple top-k neighbour lists (knn.Nearest order:
	// descending sim, ascending id). elig snapshots per-row repair
	// eligibility (row has a numeric measure value) as of the last sync;
	// tokDirty accumulates rows re-tokenized since then.
	neigh    map[dataset.TupleID][]knn.Neighbor
	elig     []bool
	tokDirty map[int]struct{}
}

// detector returns the session's incremental detection state.
func (s *Session) detector() *detectDelta {
	if s.detect == nil {
		s.detect = &detectDelta{
			s:      s,
			simIdx: make(map[int]*goldenrec.SimIndex),
			neigh:  make(map[dataset.TupleID][]knn.Neighbor),
		}
	}
	return s.detect
}

// markTokenDirty records rows whose token sets were rebuilt; consumed by
// the next sync.
func (d *detectDelta) markTokenDirty(rows []int) {
	if d.tokDirty == nil {
		d.tokDirty = make(map[int]struct{}, len(rows))
	}
	for _, r := range rows {
		d.tokDirty[r] = struct{}{}
	}
}

// flush drops every cached neighbour list (full fallback).
func (d *detectDelta) flush() {
	d.neigh = make(map[dataset.TupleID][]knn.Neighbor)
}

// sync reconciles the neighbour cache with the repairs applied since the
// previous detect: poisoned lists are dropped, newly eligible and
// re-tokenized rows are insertion-tried into the survivors.
func (d *detectDelta) sync(ix *knn.Index) {
	n := d.s.table.NumRows()
	var newElig []int
	if d.elig == nil {
		d.elig = make([]bool, n)
		for i := 0; i < n; i++ {
			d.elig[i] = d.eligAccept(i)
		}
	} else {
		for i := 0; i < n; i++ {
			e := d.eligAccept(i)
			if e == d.elig[i] {
				continue
			}
			d.elig[i] = e
			if e {
				newElig = append(newElig, i)
			} else {
				// Repairs only ever write measure values, so eligibility
				// should never revoke; if it somehow does, every cached
				// list may contain a now-ineligible neighbour — fall back
				// to full recomputation.
				d.flush()
			}
		}
	}

	tok := d.tokDirty
	d.tokDirty = nil
	if len(tok) > 0 {
		for id, ns := range d.neigh {
			row, ok := d.s.table.RowIndex(id)
			if !ok {
				delete(d.neigh, id)
				continue
			}
			if _, bad := tok[row]; bad {
				delete(d.neigh, id)
				continue
			}
			for _, nb := range ns {
				if _, bad := tok[nb.Row]; bad {
					delete(d.neigh, id)
					break
				}
			}
		}
	}

	// Insertion candidates: rows that became eligible, plus re-tokenized
	// rows that are eligible (their similarity to any surviving list's
	// target may have risen above its k-th entry). Surviving lists cannot
	// already contain either kind — ineligible rows are never cached, and
	// lists containing a re-tokenized row were just dropped.
	cands := append([]int(nil), newElig...)
	for r := range tok {
		if r >= 0 && r < len(d.elig) && d.elig[r] {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	k := imputeK
	for id, ns := range d.neigh {
		row, ok := d.s.table.RowIndex(id)
		if !ok {
			continue
		}
		changed := false
		for _, r := range cands {
			if r == row {
				continue
			}
			var ins bool
			ns, ins = knn.Insert(ns, knn.Neighbor{Row: r, ID: d.s.table.ID(r), Sim: ix.Sim(row, r)}, k)
			changed = changed || ins
		}
		if changed {
			d.neigh[id] = ns
		}
	}
}

// eligAccept is the imputer's neighbour filter: the row has a usable
// measure value.
func (d *detectDelta) eligAccept(i int) bool {
	_, ok := d.s.table.Get(i, d.s.yCol).Float()
	return ok
}

// suggestForK serves one kNN repair suggestion over a neighbourhood of
// k, from the cache when a valid list exists. Sizes other than the
// session's imputeK bypass the cache (they occur only on degenerate
// tables where the outlier detector clamps k below imputeK).
func (d *detectDelta) suggestForK(id dataset.TupleID, k int) (impute.Suggestion, bool) {
	row, ok := d.s.table.RowIndex(id)
	if !ok {
		return impute.Suggestion{}, false
	}
	var ns []knn.Neighbor
	if k != imputeK {
		ns = d.s.knnIdx().Nearest(row, k, d.eligAccept)
		d.s.lastDetect.fallbacks++
	} else if cached, ok := d.neigh[id]; ok {
		ns = cached
		d.s.lastDetect.accepts++
	} else {
		ns = d.s.knnIdx().Nearest(row, k, d.eligAccept)
		d.neigh[id] = ns
		d.s.lastDetect.fallbacks++
	}
	if len(ns) == 0 {
		return impute.Suggestion{}, false
	}
	// Identical arithmetic to impute.Imputer.SuggestFor: measure values
	// summed left to right in neighbour rank order, then divided.
	sum := 0.0
	sug := impute.Suggestion{ID: id}
	for _, n := range ns {
		y, _ := d.s.table.Get(n.Row, d.s.yCol).Float()
		sum += y
		sug.Neighbors = append(sug.Neighbors, n.ID)
	}
	sug.Value = sum / float64(len(ns))
	return sug, true
}

// aCandidates serves one column's Algorithm 1 candidates from the
// precomputed similarity join.
func (d *detectDelta) aCandidates(groups [][]dataset.TupleID, col int, threshold float64) []goldenrec.Candidate {
	ix, ok := d.simIdx[col]
	if !ok {
		ix = d.s.simIndexFor(col, threshold)
		d.simIdx[col] = ix
	}
	return ix.Candidates(d.s.table, groups)
}

// candidateIndex lazily builds the static inverted candidate index.
func (d *detectDelta) candidateIndex() *em.CandidateIndex {
	if d.candIdx == nil {
		d.candIdx = em.NewCandidateIndex(d.s.table, d.s.candidates)
	}
	return d.candIdx
}
