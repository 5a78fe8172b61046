package em

import (
	"sort"

	"visclean/internal/dataset"
)

// Clusters is a partition of tuple ids into entities, the output of
// matching. User-confirmed pairs are must-links, user-split pairs are
// cannot-links; remaining candidates merge when the model's probability
// clears the threshold, in descending-probability order, skipping any
// merge that would violate a cannot-link.
type Clusters struct {
	uf    *UnionFind
	index map[dataset.TupleID]int
	ids   []dataset.TupleID
}

// ClusterConfig parameterizes clustering.
type ClusterConfig struct {
	// Threshold is the auto-merge probability (0.5 in the paper's EM
	// usage: pairs the model believes match).
	Threshold float64
	// Confirmed and Split are the user's answers: must-link / cannot-link.
	Confirmed []Pair
	Split     []Pair
}

// SortMergeCandidates scores the candidate pairs, keeps those at or
// above the threshold and sorts them by descending probability with
// deterministic tiebreaks. The result can be reused across many
// BuildClustersSorted calls (the benefit model rebuilds clusters for
// every T-hypothesis; scoring and sorting dominate if repeated).
func SortMergeCandidates(candidates []Pair, prob func(Pair) float64, threshold float64) []ScoredPair {
	scored := make([]ScoredPair, 0, len(candidates))
	for _, p := range candidates {
		if pr := prob(p); pr >= threshold {
			scored = append(scored, ScoredPair{Pair: p, Prob: pr})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Prob != scored[j].Prob {
			return scored[i].Prob > scored[j].Prob
		}
		if scored[i].Pair.A != scored[j].Pair.A {
			return scored[i].Pair.A < scored[j].Pair.A
		}
		return scored[i].Pair.B < scored[j].Pair.B
	})
	return scored
}

// BuildClusters partitions the tuples of t.
func BuildClusters(t *dataset.Table, candidates []Pair, prob func(Pair) float64, cfg ClusterConfig) *Clusters {
	return BuildClustersSorted(t, SortMergeCandidates(candidates, prob, cfg.Threshold), cfg)
}

// BuildClustersSorted is BuildClusters over a pre-scored, pre-sorted
// merge list (see SortMergeCandidates).
func BuildClustersSorted(t *dataset.Table, sorted []ScoredPair, cfg ClusterConfig) *Clusters {
	c := &Clusters{
		index: make(map[dataset.TupleID]int, t.NumRows()),
		ids:   make([]dataset.TupleID, t.NumRows()),
	}
	for i := 0; i < t.NumRows(); i++ {
		id := t.ID(i)
		c.index[id] = i
		c.ids[i] = id
	}
	clusterInto(c, sorted, cfg.Confirmed, cfg.Split)
	return c
}

// clusterInto runs the constrained merge process over a Clusters whose
// index/ids are already populated: cannot-links first, then must-links,
// then model merges in descending probability. Shared by the one-shot
// builders and ClusterBuilder so the two paths cannot diverge.
func clusterInto(c *Clusters, sorted []ScoredPair, confirmed, split []Pair) {
	c.uf = NewUnionFind(len(c.ids))

	// cannotRoots[root] is the set of roots this set must never join.
	cannot := make(map[int]map[int]struct{})
	addCannot := func(ra, rb int) {
		if cannot[ra] == nil {
			cannot[ra] = map[int]struct{}{}
		}
		if cannot[rb] == nil {
			cannot[rb] = map[int]struct{}{}
		}
		cannot[ra][rb] = struct{}{}
		cannot[rb][ra] = struct{}{}
	}
	blocked := func(ra, rb int) bool {
		_, bad := cannot[ra][rb]
		return bad
	}
	merge := func(a, b dataset.TupleID) bool {
		ia, okA := c.index[a]
		ib, okB := c.index[b]
		if !okA || !okB {
			return false
		}
		ra, rb := c.uf.Find(ia), c.uf.Find(ib)
		if ra == rb {
			return true
		}
		if blocked(ra, rb) {
			return false
		}
		r := c.uf.Union(ra, rb)
		// The merged set inherits both cannot-link sets. Most unions join
		// two roots that have none, and then there is nothing to carry.
		if len(cannot[ra]) == 0 && len(cannot[rb]) == 0 {
			return true
		}
		merged := map[int]struct{}{}
		for o := range cannot[ra] {
			merged[o] = struct{}{}
		}
		for o := range cannot[rb] {
			merged[o] = struct{}{}
		}
		delete(merged, ra)
		delete(merged, rb)
		if len(merged) > 0 {
			cannot[r] = merged
			for o := range merged {
				if cannot[o] == nil {
					cannot[o] = map[int]struct{}{}
				}
				delete(cannot[o], ra)
				delete(cannot[o], rb)
				cannot[o][r] = struct{}{}
			}
		}
		return true
	}

	// 1. Cannot-links first so they constrain everything after.
	for _, p := range split {
		ia, okA := c.index[p.A]
		ib, okB := c.index[p.B]
		if !okA || !okB {
			continue
		}
		addCannot(c.uf.Find(ia), c.uf.Find(ib))
	}
	// 2. Must-links. A must-link conflicting with a cannot-link is
	// dropped (the user contradicted themselves; cannot-link wins as the
	// safer interpretation — not merging never corrupts data).
	for _, p := range confirmed {
		merge(p.A, p.B)
	}
	// 3. Model merges in descending probability so stronger evidence
	// shapes clusters first.
	for _, sp := range sorted {
		merge(sp.Pair.A, sp.Pair.B)
	}
}

// Freeze settles the underlying union-find (full path compression) so
// subsequent Same/Groups/ClusterOf calls perform no writes — safe for
// concurrent readers until the next merge.
func (c *Clusters) Freeze() { c.uf.Compress() }

// Same reports whether two tuples are currently the same entity.
func (c *Clusters) Same(a, b dataset.TupleID) bool {
	ia, okA := c.index[a]
	ib, okB := c.index[b]
	return okA && okB && c.uf.Same(ia, ib)
}

// Groups returns the entity clusters with at least minSize tuples, each
// sorted by tuple id, deterministically ordered.
func (c *Clusters) Groups(minSize int) [][]dataset.TupleID {
	raw := c.uf.Groups(minSize)
	out := make([][]dataset.TupleID, len(raw))
	for i, g := range raw {
		ids := make([]dataset.TupleID, len(g))
		for j, idx := range g {
			ids[j] = c.ids[idx]
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out[i] = ids
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// Root returns an opaque identifier of id's current cluster: two tuples
// are the same entity iff their roots are equal. It may path-halve the
// forest, so it is not safe for concurrent use unless the receiver is
// frozen; the delta pricer only calls it on private, per-hypothesis
// partitions.
func (c *Clusters) Root(id dataset.TupleID) (int, bool) {
	i, ok := c.index[id]
	if !ok {
		return 0, false
	}
	return c.uf.Find(i), true
}

// GroupIntact reports whether members (non-empty) is exactly one cluster
// of c — the partition-diff primitive of incremental hypothesis pricing:
// a base cluster that is intact under a hypothetical partition keeps its
// consolidated view row unchanged.
func (c *Clusters) GroupIntact(members []dataset.TupleID) bool {
	i0, ok := c.index[members[0]]
	if !ok {
		return false
	}
	if c.uf.SetSize(i0) != len(members) {
		return false
	}
	root := c.uf.Find(i0)
	for _, id := range members[1:] {
		i, ok := c.index[id]
		if !ok || c.uf.Find(i) != root {
			return false
		}
	}
	return true
}

// ClusterBuilder amortizes the per-table setup of clustering (the tuple
// index) across many Build calls. The benefit model rebuilds the entity
// partition for every T-hypothesis; with the builder each rebuild costs
// one union-find pass over the shared merge list instead of also paying
// an O(n) map construction per hypothesis. A builder is safe for
// concurrent Build calls: it only reads its captured state, and every
// Build returns a private Clusters (sharing the immutable index/ids).
type ClusterBuilder struct {
	index     map[dataset.TupleID]int
	ids       []dataset.TupleID
	sorted    []ScoredPair
	confirmed []Pair
	split     []Pair
}

// NewClusterBuilder captures the table's tuple index plus the shared
// merge list and accumulated user constraints. The captured slices are
// referenced, not copied — callers must not mutate them while the
// builder is in use.
func NewClusterBuilder(t *dataset.Table, sorted []ScoredPair, cfg ClusterConfig) *ClusterBuilder {
	b := &ClusterBuilder{
		index:     make(map[dataset.TupleID]int, t.NumRows()),
		ids:       make([]dataset.TupleID, t.NumRows()),
		sorted:    sorted,
		confirmed: cfg.Confirmed,
		split:     cfg.Split,
	}
	for i := 0; i < t.NumRows(); i++ {
		id := t.ID(i)
		b.index[id] = i
		b.ids[i] = id
	}
	return b
}

// Build partitions the tuples under the captured constraints plus the
// extra hypothetical ones, exactly as BuildClustersSorted would with the
// extras appended — the merge process is shared code, so the resulting
// partition is bit-identical.
func (b *ClusterBuilder) Build(extraConfirm, extraSplit []Pair) *Clusters {
	conf := b.confirmed
	spl := b.split
	if len(extraConfirm) > 0 {
		conf = append(append([]Pair(nil), conf...), extraConfirm...)
	}
	if len(extraSplit) > 0 {
		spl = append(append([]Pair(nil), spl...), extraSplit...)
	}
	c := &Clusters{index: b.index, ids: b.ids}
	clusterInto(c, b.sorted, conf, spl)
	return c
}

// ClusterOf returns all members of the tuple's entity, sorted.
func (c *Clusters) ClusterOf(id dataset.TupleID) []dataset.TupleID {
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	root := c.uf.Find(i)
	var out []dataset.TupleID
	for j := range c.ids {
		if c.uf.Find(j) == root {
			out = append(out, c.ids[j])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
