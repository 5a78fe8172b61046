package goldenrec

import (
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// SimIndex is a session-lifetime accelerator for Candidates. The
// expensive part of Algorithm 1 is Strategy 2's string similarity join;
// its inputs — the distinct values of an attribute column — never change
// during cleaning (repairs rewrite only the measure column, and
// standardization is tracked logically, not by cell rewrites), so the
// join can be run once per column and re-filtered per iteration against
// the current clustering. Strategy 1's pairwise Jaccards are memoized
// for the same reason.
//
// Candidates(t, clusters, col) is bit-identical to
// goldenrec.Candidates(t, clusters, col, threshold): the prefix-filter
// join is lossless for any input ordering, the similarity of two fixed
// strings is a pure function, and the cross-cluster condition on a value
// pair ("some instance pair lies in two different clusters") reduces to
// cluster-ownership counts. See TestSimIndexMatchesCandidates.
type SimIndex struct {
	col   int
	pairs []Candidate // all distinct-value pairs with Sim > threshold; V1 < V2, Prob = Sim
	memo  *stringsim.Memo
}

// NewSimIndex joins the distinct text values of column col of t once.
// threshold is the λ of Algorithm 1 Strategy 2.
func NewSimIndex(t *dataset.Table, col int, threshold float64) *SimIndex {
	ix := &SimIndex{col: col, memo: stringsim.NewMemo()}
	freq := t.DistinctStrings(col)
	vals := make([]string, 0, len(freq))
	for v := range freq {
		vals = append(vals, v)
	}
	// Order is irrelevant to the join's result set but sorted input keeps
	// construction deterministic.
	sort.Strings(vals)
	for _, p := range stringsim.SelfJoin(vals, threshold) {
		v1, v2 := canonicalPair(vals[p.I], vals[p.J])
		ix.pairs = append(ix.pairs, Candidate{V1: v1, V2: v2, Sim: p.Sim, Prob: p.Sim})
	}
	return ix
}

// Pairs returns the precomputed join result. Read-only for callers; the
// artifact cache sizes its SimIndex entries from it.
func (ix *SimIndex) Pairs() []Candidate { return ix.pairs }

// CloneShared returns a SimIndex sharing the immutable pairs slice with
// a private fresh memo. The join result never changes for fixed table
// content so it can be shared across sessions, but the memo accretes
// per-call state, so each session needs its own.
func (ix *SimIndex) CloneShared() *SimIndex {
	return &SimIndex{
		col:   ix.col,
		pairs: ix.pairs,
		memo:  stringsim.NewMemo(),
	}
}

// ownerInfo counts how many clusters a value occurs in; first is the
// index of the first such cluster.
type ownerInfo struct {
	n     int
	first int
}

// Candidates runs both Algorithm 1 strategies against the current
// clustering using the precomputed join, producing the same []Candidate
// as the package-level Candidates with this index's threshold.
func (ix *SimIndex) Candidates(t *dataset.Table, clusters [][]dataset.TupleID) []Candidate {
	owners := make(map[string]ownerInfo)
	clusterVals := make([][]string, len(clusters))
	for ci, cluster := range clusters {
		vals := distinctValues(t, cluster, ix.col)
		clusterVals[ci] = vals
		for _, v := range vals {
			oi, ok := owners[v]
			if !ok {
				oi.first = ci
			}
			oi.n++
			owners[v] = oi
		}
	}

	// Strategy 1: every unordered pair of distinct values co-occurring in
	// one cluster, deduplicated across clusters.
	seen := make(map[[2]string]struct{})
	var out []Candidate
	for _, vals := range clusterVals {
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				v1, v2 := canonicalPair(vals[i], vals[j])
				key := [2]string{v1, v2}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, Candidate{V1: v1, V2: v2, Sim: ix.memo.Jaccard(v1, v2), Prob: ClusterConfidence})
			}
		}
	}

	// Strategy 2: a precomputed join pair qualifies iff some instance
	// pair of its two values lies in two different clusters — i.e. unless
	// both values live in exactly one and the same cluster. Strategy 1
	// wins on duplicates, matching Candidates' merge order.
	for _, c := range ix.pairs {
		o1, ok1 := owners[c.V1]
		o2, ok2 := owners[c.V2]
		if !ok1 || !ok2 {
			continue
		}
		if o1.n == 1 && o2.n == 1 && o1.first == o2.first {
			continue
		}
		if _, dup := seen[[2]string{c.V1, c.V2}]; dup {
			continue
		}
		out = append(out, c)
	}
	sortCandidates(out)
	return out
}
