// Package cqgselect implements the composite-question selection
// algorithms of §V-B and the baselines of §VII:
//
//   - GSS: the paper's greedy subgraph selection (Algorithm 2),
//   - GSS+: GSS with edge pruning (keep only uncertain edges, weight in
//     [0.3, 0.7]) and early termination after m complete subgraphs,
//   - BranchAndBound: exact heaviest connected k-subgraph via canonical
//     connected-subgraph enumeration with an admissible upper bound [21],
//   - AlphaBB: the α-approximate variant of B&B,
//   - Random: a random connected k-subgraph.
//
// All return a Result whose vertex set induces a connected subgraph — a
// valid CQG per Definition 2.2.
package cqgselect

import (
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/erg"
)

// Result is a selected CQG.
type Result struct {
	// Vertices of the CQG, sorted by tuple id. Empty when the ERG is
	// empty.
	Vertices []dataset.TupleID
	// Benefit is the subgraph's total benefit (see erg.SubgraphBenefit).
	Benefit float64
	// Exhausted is true when a budgeted search (B&B) hit its expansion
	// budget and returned the best subgraph found so far.
	Exhausted bool
}

// vertexSet is one entry of Algorithm 2's collection C.
type vertexSet struct {
	members []dataset.TupleID
}

// GSS runs Algorithm 2: sort edges by estimated benefit descending, grow
// vertex sets greedily, and whenever a set reaches k vertices evaluate
// the induced subgraph, keeping the best.
//
// Cases left unspecified by the paper's pseudocode (both endpoints
// already assigned) follow DESIGN.md: same set → skip; different sets →
// merge when the union stays within k, else skip.
func GSS(g *erg.Graph, k int) Result {
	return gss(g, k, gssOptions{})
}

// GSS+'s operating parameters (§V-B): an edge survives pruning if its
// question probability lies in [gssPlusLow, gssPlusHigh], and edge
// iteration stops after gssPlusEarlyStop complete k-subgraphs (m).
const (
	gssPlusLow, gssPlusHigh = 0.3, 0.7
	gssPlusEarlyStop        = 20
)

// GSSPlus runs GSS with the §V-B optimizations: edge pruning to the
// uncertain band and early termination.
func GSSPlus(g *erg.Graph, k int) Result {
	return gss(g, k, gssOptions{
		prune:     true,
		pruneLow:  gssPlusLow,
		pruneHigh: gssPlusHigh,
		earlyStop: gssPlusEarlyStop,
	})
}

type gssOptions struct {
	prune               bool
	pruneLow, pruneHigh float64
	earlyStop           int // 0 = never
}

func gss(g *erg.Graph, k int, opts gssOptions) Result {
	if g.NumVertices() == 0 {
		return Result{}
	}
	if k > g.NumVertices() {
		k = g.NumVertices()
	}
	if k < 1 {
		k = 1
	}

	// Collect candidate edge indices, optionally pruned to the uncertain
	// band (edges the machine cannot answer alone).
	edgeIdx := make([]int, 0, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		if opts.prune && !uncertain(g.Edge(i), opts.pruneLow, opts.pruneHigh) {
			continue
		}
		edgeIdx = append(edgeIdx, i)
	}
	// Sort by descending sort weight (benefit + endpoint repairs),
	// deterministic tiebreak.
	sort.Slice(edgeIdx, func(a, b int) bool {
		wa, wb := g.EdgeSortWeight(edgeIdx[a]), g.EdgeSortWeight(edgeIdx[b])
		if wa != wb {
			return wa > wb
		}
		ea, eb := g.Edge(edgeIdx[a]), g.Edge(edgeIdx[b])
		if ea.A != eb.A {
			return ea.A < eb.A
		}
		return ea.B < eb.B
	})

	m := make(map[dataset.TupleID]*vertexSet)
	var best Result
	haveBest := false
	completed := 0

	evaluate := func(set *vertexSet) {
		benefit := g.SubgraphBenefit(set.members)
		if !haveBest || benefit > best.Benefit {
			vs := append([]dataset.TupleID(nil), set.members...)
			sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
			best = Result{Vertices: vs, Benefit: benefit}
			haveBest = true
		}
	}

	for _, ei := range edgeIdx {
		e := g.Edge(ei)
		sa, sb := m[e.A], m[e.B]
		var target *vertexSet
		switch {
		case sa == nil && sb == nil: // Case 1
			target = &vertexSet{members: []dataset.TupleID{e.A, e.B}}
			m[e.A], m[e.B] = target, target
		case sa == nil: // Case 2: add A into B's set
			sb.members = append(sb.members, e.A)
			m[e.A] = sb
			target = sb
		case sb == nil: // Case 3: add B into A's set
			sa.members = append(sa.members, e.B)
			m[e.B] = sa
			target = sa
		case sa == sb:
			continue // internal edge; set unchanged
		default: // both assigned, different sets: merge if it fits
			if len(sa.members)+len(sb.members) > k {
				continue
			}
			if len(sa.members) < len(sb.members) {
				sa, sb = sb, sa
			}
			sa.members = append(sa.members, sb.members...)
			for _, v := range sb.members {
				m[v] = sa
			}
			target = sa
		}
		if len(target.members) == k {
			evaluate(target)
			completed++
			for _, v := range target.members {
				delete(m, v) // line 22: reset to null
			}
			if opts.earlyStop > 0 && completed >= opts.earlyStop {
				break
			}
		}
	}

	// Evaluate the partial (< k vertex) sets too and keep the overall
	// best: a two-vertex set holding one high-benefit question beats a
	// k-vertex subgraph of worthless edges. (A deviation from the
	// literal Algorithm 2, which only scores full k-sets; the user would
	// rather answer a small question worth something than a big one
	// worth nothing.) The distinct sets are collected out of the map and
	// sorted by a deterministic key before evaluation: evaluate keeps
	// the FIRST set at any given benefit (strict >), so ranging over the
	// map directly would break equal-benefit ties by map iteration order
	// — same seed, different CQG across runs.
	seen := make(map[*vertexSet]struct{}, len(m))
	partial := make([]*vertexSet, 0, len(m))
	for _, set := range m {
		if _, dup := seen[set]; dup {
			continue
		}
		seen[set] = struct{}{}
		partial = append(partial, set)
	}
	sort.Slice(partial, func(i, j int) bool {
		return lessMemberKey(partial[i].members, partial[j].members)
	})
	for _, set := range partial {
		evaluate(set)
	}
	if !haveBest {
		bestV := dataset.TupleID(-1)
		bestB := -1.0
		for _, v := range g.Vertices() {
			b := 0.0
			if r := g.Repair(v); r != nil {
				b = r.Benefit
			}
			if b > bestB {
				bestB, bestV = b, v
			}
		}
		if bestV >= 0 {
			return Result{Vertices: []dataset.TupleID{bestV}, Benefit: g.SubgraphBenefit([]dataset.TupleID{bestV})}
		}
		return Result{}
	}
	return growToK(g, best, k)
}

// lessMemberKey orders vertex sets by their sorted member ids,
// lexicographically — the deterministic tiebreak key for partial-set
// evaluation. Member slices arrive in insertion order, so compare
// sorted copies.
func lessMemberKey(a, b []dataset.TupleID) bool {
	as := append([]dataset.TupleID(nil), a...)
	bs := append([]dataset.TupleID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] != bs[i] {
			return as[i] < bs[i]
		}
	}
	return len(as) < len(bs)
}

// growToK greedily extends an undersized CQG to k vertices, one best
// marginal-benefit neighbour at a time, keeping it connected. A partial
// set that won on density of benefit should still ask a full-size
// composite question — the user's unit cost already covers k vertices.
func growToK(g *erg.Graph, res Result, k int) Result {
	if len(res.Vertices) >= k {
		return res
	}
	in := make(map[dataset.TupleID]struct{}, k)
	for _, v := range res.Vertices {
		in[v] = struct{}{}
	}
	vertices := append([]dataset.TupleID(nil), res.Vertices...)
	for len(vertices) < k {
		bestV := dataset.TupleID(-1)
		bestGain := -1.0
		for _, v := range vertices {
			for _, nb := range g.Neighbors(v) {
				if _, dup := in[nb]; dup {
					continue
				}
				gain := marginalGain(g, in, nb)
				if gain > bestGain || (gain == bestGain && (bestV < 0 || nb < bestV)) {
					bestGain, bestV = gain, nb
				}
			}
		}
		if bestV < 0 {
			break // component exhausted
		}
		in[bestV] = struct{}{}
		vertices = append(vertices, bestV)
	}
	sort.Slice(vertices, func(a, b int) bool { return vertices[a] < vertices[b] })
	return Result{Vertices: vertices, Benefit: g.SubgraphBenefit(vertices)}
}

// marginalGain is the benefit delta of adding v to the set: its repair
// benefit plus the benefits of edges into the set.
func marginalGain(g *erg.Graph, in map[dataset.TupleID]struct{}, v dataset.TupleID) float64 {
	gain := 0.0
	if r := g.Repair(v); r != nil {
		gain += r.Benefit
	}
	for _, ei := range g.IncidentEdges(v) {
		e := g.Edge(ei)
		other := e.A
		if other == v {
			other = e.B
		}
		if _, ok := in[other]; ok {
			gain += e.Benefit
		}
	}
	return gain
}

// uncertain reports whether an edge is worth asking a human about under
// GSS+'s pruning rule. T-questions outside the [lo, hi] band are prunable
// — the matching model can answer them itself. A-questions are never
// pruned by confidence: an attribute transformation is only ever applied
// through an (explicit or implied) approval, so however confident the
// prior, pruning the question would leave the standardization undone.
func uncertain(e *erg.Edge, lo, hi float64) bool {
	if e.HasA {
		return true
	}
	if e.HasT && e.PT >= lo && e.PT <= hi {
		return true
	}
	// Edges with neither question payload (synthetic benches) fall back
	// to the benefit value itself.
	if !e.HasT && !e.HasA {
		return e.Benefit >= lo && e.Benefit <= hi
	}
	return false
}
