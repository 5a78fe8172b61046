// Package goldenrec implements GoldenRecordCreation [11] as used by
// Algorithm 1 (Strategy 1) of the paper: within each entity cluster, the
// distinct values of a target attribute should all refer to the same
// attribute-level entity, so every pair of distinct values is a candidate
// transformation ("ACM SIGMOD" ↔ "SIGMOD Conf."). It also elects the
// canonical ("golden") value used to standardize a synonym class.
package goldenrec

import (
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/stringsim"
)

// Candidate is one attribute-level transformation candidate: the claim
// that V1 and V2 denote the same attribute entity. Sim is the token
// Jaccard similarity of the two values; Prob is the approval probability
// P^Y the benefit model uses (§V-A (2)). For Strategy-2 (similarity
// join) candidates Prob equals Sim; for Strategy-1 candidates — values
// co-occurring inside one matched entity cluster — Prob is the high
// ClusterConfidence regardless of string distance, because tuples known
// to be the same entity almost surely carry the same attribute entity
// even when the spellings share no tokens ("ICDE" ↔ "Intl. Conf. on
// Data Engineering").
type Candidate struct {
	V1, V2 string
	Sim    float64
	Prob   float64
}

// ClusterConfidence is the approval probability of Strategy-1 candidates.
const ClusterConfidence = 0.9

// canonicalPair orders a value pair deterministically.
func canonicalPair(a, b string) (string, string) {
	if a > b {
		return b, a
	}
	return a, b
}

// ClusterCandidates generates transformation candidates from entity
// clusters: for every cluster, every unordered pair of distinct values in
// column col. Duplicate pairs across clusters are merged. Results are
// sorted by descending similarity, then lexicographically.
func ClusterCandidates(t *dataset.Table, clusters [][]dataset.TupleID, col int) []Candidate {
	seen := make(map[[2]string]struct{})
	var out []Candidate
	for _, cluster := range clusters {
		values := distinctValues(t, cluster, col)
		for i := 0; i < len(values); i++ {
			for j := i + 1; j < len(values); j++ {
				v1, v2 := canonicalPair(values[i], values[j])
				key := [2]string{v1, v2}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, Candidate{V1: v1, V2: v2, Sim: stringsim.Jaccard(v1, v2), Prob: ClusterConfidence})
			}
		}
	}
	sortCandidates(out)
	return out
}

// CrossClusterCandidates implements Algorithm 1 Strategy 2: a string
// similarity join across the values of different clusters finds synonym
// candidates that clustering could not ("SIGMOD'13" ↔ "SIGMOD" when their
// tuples describe different papers). threshold is the λ of Algorithm 1.
func CrossClusterCandidates(t *dataset.Table, clusters [][]dataset.TupleID, col int, threshold float64) []Candidate {
	// Collect each cluster's distinct values and remember which cluster a
	// value instance came from, so same-cluster joins are excluded (they
	// are Strategy 1's job).
	var vals []string
	var owner []int
	for ci, cluster := range clusters {
		for _, v := range distinctValues(t, cluster, col) {
			vals = append(vals, v)
			owner = append(owner, ci)
		}
	}
	pairs := stringsim.SelfJoin(vals, threshold)
	seen := make(map[[2]string]struct{})
	var out []Candidate
	for _, p := range pairs {
		if owner[p.I] == owner[p.J] {
			continue
		}
		if vals[p.I] == vals[p.J] {
			continue
		}
		v1, v2 := canonicalPair(vals[p.I], vals[p.J])
		key := [2]string{v1, v2}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, Candidate{V1: v1, V2: v2, Sim: p.Sim, Prob: p.Sim})
	}
	sortCandidates(out)
	return out
}

// Candidates runs both strategies (Algorithm 1) and merges the result,
// Strategy 1 candidates taking precedence on duplicates.
func Candidates(t *dataset.Table, clusters [][]dataset.TupleID, col int, threshold float64) []Candidate {
	s1 := ClusterCandidates(t, clusters, col)
	seen := make(map[[2]string]struct{}, len(s1))
	for _, c := range s1 {
		seen[[2]string{c.V1, c.V2}] = struct{}{}
	}
	out := s1
	for _, c := range CrossClusterCandidates(t, clusters, col, threshold) {
		if _, dup := seen[[2]string{c.V1, c.V2}]; dup {
			continue
		}
		out = append(out, c)
	}
	sortCandidates(out)
	return out
}

func distinctValues(t *dataset.Table, cluster []dataset.TupleID, col int) []string {
	set := make(map[string]struct{})
	var out []string
	for _, id := range cluster {
		v, ok := t.GetByID(id, col)
		if !ok {
			continue
		}
		s, ok := v.Text()
		if !ok {
			continue
		}
		if _, dup := set[s]; dup {
			continue
		}
		set[s] = struct{}{}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Sim != cs[j].Sim {
			return cs[i].Sim > cs[j].Sim
		}
		if cs[i].V1 != cs[j].V1 {
			return cs[i].V1 < cs[j].V1
		}
		return cs[i].V2 < cs[j].V2
	})
}

// Standardizer accumulates approved value equivalences for one attribute
// and elects the golden value of each synonym class: the most frequent
// value in the data, ties broken by shortest then lexicographically
// smallest ("SIGMOD" beats "SIGMOD Conf." at equal frequency).
type Standardizer struct {
	parent map[string]string
	// members holds, at its root, the sorted member list of every class
	// of two or more values. A stored list is never modified — Approve
	// stores a new merged list — so clones share the lists.
	members map[string][]string
	freq    map[string]int
	// canon caches Canonical results; Approve deletes the entries of the
	// two classes it merges. Canonical is called once per table cell
	// during view building, so without the cache its election cost
	// dominates the whole pipeline.
	canon map[string]string
}

// NewStandardizer captures value frequencies from column col of t.
func NewStandardizer(t *dataset.Table, col int) *Standardizer {
	return &Standardizer{
		parent:  make(map[string]string),
		members: make(map[string][]string),
		freq:    t.DistinctStrings(col),
	}
}

func (s *Standardizer) find(v string) string {
	p, ok := s.parent[v]
	if !ok || p == v {
		return v
	}
	root := s.find(p)
	// Path-compress only when the entry actually moves: after Freeze has
	// compressed every chain, find performs no map writes at all, which
	// is what makes a frozen standardizer safe for concurrent readers.
	if root != p {
		s.parent[v] = root
	}
	return root
}

// Freeze precomputes every lazily derived structure — full path
// compression of the union-find and the canonical value of every known
// member — so that subsequent SameClass and Canonical calls perform no
// writes whatsoever. A frozen standardizer is safe for concurrent
// readers until the next Approve (which re-dirties the caches); the
// benefit model freezes the session's standardizers before fanning
// hypothetical-visualization pricing out across workers. It costs one
// election per class: O(values + Σ class size²).
func (s *Standardizer) Freeze() {
	for v := range s.parent {
		s.find(v)
	}
	for v := range s.freq {
		s.Canonical(v)
	}
	for v := range s.parent {
		s.Canonical(v)
	}
}

// Bytes estimates the standardizer's heap footprint (frequency, parent,
// member-list and canonical maps), for the artifact cache's budget
// accounting. A member list's strings share the parent map's bytes.
func (s *Standardizer) Bytes() int64 {
	var b int64
	for v := range s.freq {
		b += int64(len(v)) + 48 + 8
	}
	for v, p := range s.parent {
		b += int64(len(v)+len(p)) + 48
	}
	for r, l := range s.members {
		b += int64(len(r)) + 48 + 24 + 16*int64(len(l))
	}
	for v, c := range s.canon {
		b += int64(len(v)+len(c)) + 48
	}
	return b
}

// Approve records that v1 and v2 are the same attribute entity.
func (s *Standardizer) Approve(v1, v2 string) {
	r1, r2 := s.find(v1), s.find(v2)
	if r1 == r2 {
		return
	}
	// Keep the deterministic smaller root as representative; canonical
	// election happens at lookup time.
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	s.parent[r2] = r1
	if _, ok := s.parent[r1]; !ok {
		s.parent[r1] = r1
	}
	merged := mergeSorted(s.classMembers(r1), s.classMembers(r2))
	delete(s.members, r2)
	s.members[r1] = merged
	for _, m := range merged {
		delete(s.canon, m)
	}
}

// mergeSorted merges two sorted, disjoint lists into a new one.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Clone returns an independent copy sharing the (immutable) frequency
// map and member lists, with an empty canonical cache; the benefit
// model uses clones to price hypothetical approvals. A clone never
// reads its source's cache, so approving on either leaves the other's
// answers as they were.
func (s *Standardizer) Clone() *Standardizer {
	cp := &Standardizer{
		parent:  make(map[string]string, len(s.parent)),
		members: make(map[string][]string, len(s.members)),
		freq:    s.freq,
	}
	for k, v := range s.parent {
		cp.parent[k] = v
	}
	for k, v := range s.members {
		cp.members[k] = v
	}
	return cp
}

// SameClass reports whether two values are currently in one synonym class.
func (s *Standardizer) SameClass(v1, v2 string) bool { return s.find(v1) == s.find(v2) }

// Canonical returns the golden value of v's synonym class: the member
// maximizing containment + frequency, where containment counts the class
// members whose token sets include all of the candidate's tokens. The
// containment term is what elects "SIGMOD" over "SIGMOD'13" even when a
// variant is more frequent — the shared core of a synonym class is its
// natural golden value. Ties break to higher frequency, then shorter,
// then lexicographically smaller.
func (s *Standardizer) Canonical(v string) string {
	if c, ok := s.canon[v]; ok {
		return c
	}
	members := s.classMembers(s.find(v))
	best := v
	bestSeen := false
	if len(members) > 1 {
		tokens := make([]map[string]struct{}, len(members))
		for i, m := range members {
			tokens[i] = stringsim.TokenSet(m)
		}
		containment := make(map[string]int, len(members))
		for i, m := range members {
			n := 0
			for j := range members {
				if containsAll(tokens[j], tokens[i]) {
					n++
				}
			}
			containment[m] = n
		}
		for _, m := range members {
			if !bestSeen || betterGolden(m, best, containment, s.freq) {
				best = m
				bestSeen = true
			}
		}
	}
	if s.canon == nil {
		s.canon = make(map[string]string)
	}
	// The whole class shares the answer; cache every member.
	for _, m := range members {
		s.canon[m] = best
	}
	return best
}

// containsAll reports whether set a includes every token of b.
func containsAll(a, b map[string]struct{}) bool {
	if len(b) > len(a) {
		return false
	}
	for t := range b {
		if _, ok := a[t]; !ok {
			return false
		}
	}
	return true
}

func betterGolden(a, b string, containment map[string]int, freq map[string]int) bool {
	if containment[a] != containment[b] {
		return containment[a] > containment[b]
	}
	return better(a, b, freq)
}

// classMembers returns the sorted members of the class rooted at root.
// The list is shared: callers must not modify it.
func (s *Standardizer) classMembers(root string) []string {
	if l, ok := s.members[root]; ok {
		return l
	}
	return []string{root}
}

func better(a, b string, freq map[string]int) bool {
	if freq[a] != freq[b] {
		return freq[a] > freq[b]
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}
