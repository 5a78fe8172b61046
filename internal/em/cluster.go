package em

import (
	"sort"

	"visclean/internal/dataset"
)

// Clusters is a partition of tuple ids into entities, the output of
// matching. User-confirmed pairs are must-links, user-split pairs are
// cannot-links; the merge list's pairs, which the caller selected by
// probability, merge in descending-probability order, skipping any
// merge that would violate a cannot-link.
type Clusters struct {
	uf    *UnionFind
	index map[dataset.TupleID]int
	ids   []dataset.TupleID
}

// ClusterConfig carries the user's answers into clustering: must-links
// (Confirmed) and cannot-links (Split).
type ClusterConfig struct {
	Confirmed []Pair
	Split     []Pair
}

// MergeBefore reports whether a precedes b in a merge list: descending
// probability, then ascending (A, B). Over distinct pairs without a NaN
// probability it is a strict total order, so every sort of one list
// gives the same merge order.
func MergeBefore(a, b ScoredPair) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	if a.Pair.A != b.Pair.A {
		return a.Pair.A < b.Pair.A
	}
	return a.Pair.B < b.Pair.B
}

// BuildClustersSorted partitions the tuples of t: the user's answers
// first, then the merge list, which holds the auto-merge pairs sorted by
// MergeBefore.
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
// subsequent Same/Groups calls perform no writes — safe for
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

// SplitReplay partitions one base cluster under one extra cannot-link
// by replaying the merge process over that cluster's tuples alone. It
// is exact for a base cluster that no cannot-link endpoint touches:
// every must-link or merge-list entry with one endpoint in such a
// cluster has the other there too. Had the entry been unblocked, its
// endpoints would share a cluster; had it been blocked, a cannot-link
// endpoint would lie in the cluster. The cluster therefore never
// interacts with the rest of the merge process, which the extra
// cannot-link leaves as it was. A cluster a cannot-link touches gets no
// replay: there a blocked entry can reach outside it, and a split can
// unblock it.
type SplitReplay struct {
	touched   map[int]bool // base clusters holding a cannot-link endpoint
	confirmed map[int][]Pair
	sorted    map[int][]ScoredPair
}

// NewSplitReplay buckets the builder's must-links and merge-list
// entries, each in list order, by the base cluster that holds both
// endpoints; groupOf maps a tuple to its base cluster. An entry spanning
// two clusters is dropped: by the argument above, both of them hold a
// cannot-link endpoint, and the replay does not serve such clusters.
func (b *ClusterBuilder) NewSplitReplay(groupOf map[dataset.TupleID]int) *SplitReplay {
	r := &SplitReplay{touched: make(map[int]bool), confirmed: make(map[int][]Pair), sorted: make(map[int][]ScoredPair)}
	for _, p := range b.split {
		for _, id := range [2]dataset.TupleID{p.A, p.B} {
			if gi, ok := groupOf[id]; ok {
				r.touched[gi] = true
			}
		}
	}
	inside := func(p Pair) (int, bool) {
		ga, okA := groupOf[p.A]
		gb, okB := groupOf[p.B]
		return ga, okA && okB && ga == gb
	}
	for _, p := range b.confirmed {
		if gi, ok := inside(p); ok {
			r.confirmed[gi] = append(r.confirmed[gi], p)
		}
	}
	for _, sp := range b.sorted {
		if gi, ok := inside(sp.Pair); ok {
			r.sorted[gi] = append(r.sorted[gi], sp)
		}
	}
	return r
}

// Touched reports whether one of the builder's cannot-links has an
// endpoint in base cluster gi. Split declines such a cluster, and a
// must-link across two clusters is their plain union only when neither
// is touched (DESIGN.md §10, path 3).
func (r *SplitReplay) Touched(gi int) bool { return r.touched[gi] }

// Split returns the clusters that base cluster gi, whose sorted members
// are given, falls into once the cannot-link p between two of them is
// added, ordered and sorted as Clusters.Groups returns them. ok is false
// when one of the builder's cannot-links has an endpoint in the
// cluster; the caller must then rebuild the whole partition.
func (r *SplitReplay) Split(gi int, members []dataset.TupleID, p Pair) (parts [][]dataset.TupleID, ok bool) {
	if r.touched[gi] {
		return nil, false
	}
	c := &Clusters{index: make(map[dataset.TupleID]int, len(members)), ids: members}
	for i, id := range members {
		c.index[id] = i
	}
	clusterInto(c, r.sorted[gi], r.confirmed[gi], []Pair{p})
	return c.Groups(1), true
}
