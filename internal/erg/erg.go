// Package erg implements the Errors and Repairs Graph of Definition 2.1:
// vertices are tuples; an edge between two vertices carries a tuple-level
// matching probability p^t (a T-question) and/or an attribute-level
// matching probability p^a (an A-question); a vertex may carry an outlier
// repair (O-question, the paper's red label) or a missing-value repair
// (M-question, the hollow label). A composite question graph (CQG,
// Definition 2.2) is a connected induced subgraph.
//
// The package is a pure graph structure: detectors populate it (see
// internal/pipeline) and selection algorithms consume it (see
// internal/cqgselect). Benefits are attached by the benefit model; the
// accounting follows DESIGN.md: an edge's Benefit holds B_T + B_A, a
// vertex repair's Benefit holds B_M or B_O, the weight used to *sort*
// edges folds incident vertex benefits in (as in the paper's Example 5),
// and a subgraph's total benefit counts each vertex question once.
package erg

import (
	"fmt"
	"sort"

	"visclean/internal/dataset"
)

// RepairKind distinguishes vertex question types.
type RepairKind int

const (
	// Missing marks an M-question: the tuple's Y cell is null.
	Missing RepairKind = iota
	// Outlier marks an O-question: the tuple's Y cell is suspect.
	Outlier
)

func (k RepairKind) String() string {
	if k == Outlier {
		return "O"
	}
	return "M"
}

// Edge is one ERG edge with its question payloads.
type Edge struct {
	A, B dataset.TupleID

	// T-question payload: are tuples A and B the same entity?
	HasT bool
	PT   float64 // tuple-level matching probability p^t

	// A-question payload: are two attribute values the same entity? ACol
	// names the column the values come from (the X axis, or a
	// categorical column referenced by the query's WHERE clause).
	HasA     bool
	PA       float64 // attribute-level matching probability p^a
	ACol     string  // column the A-question is about
	AV1, AV2 string  // the two attribute values in question

	// Benefit is B_T + B_A, set by the benefit model.
	Benefit float64
}

// VertexRepair is an M- or O-question attached to a vertex.
type VertexRepair struct {
	ID        dataset.TupleID
	Kind      RepairKind
	Current   float64 // present (suspect) value; meaningful for Outlier
	Suggested float64 // proposed repair value
	Score     float64 // detector score (outlier score; 0 for missing)
	Neighbors []dataset.TupleID

	// Benefit is B_M or B_O, set by the benefit model.
	Benefit float64
}

// Graph is an ERG. Construct with New, then AddEdge/SetRepair.
type Graph struct {
	vertices []dataset.TupleID
	index    map[dataset.TupleID]int
	edges    []Edge
	adj      [][]int // vertex index -> incident edge indices
	repairs  map[dataset.TupleID]*VertexRepair
}

// New creates an ERG over the given vertex set (duplicates are an error).
func New(vertices []dataset.TupleID) (*Graph, error) {
	g := &Graph{
		vertices: append([]dataset.TupleID(nil), vertices...),
		index:    make(map[dataset.TupleID]int, len(vertices)),
		adj:      make([][]int, len(vertices)),
		repairs:  make(map[dataset.TupleID]*VertexRepair),
	}
	for i, v := range g.vertices {
		if _, dup := g.index[v]; dup {
			return nil, fmt.Errorf("erg: duplicate vertex %d", v)
		}
		g.index[v] = i
	}
	return g, nil
}

// MustNew is New for known-good vertex sets.
func MustNew(vertices []dataset.TupleID) *Graph {
	g, err := New(vertices)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertices returns the vertex ids. Callers must not mutate it.
func (g *Graph) Vertices() []dataset.TupleID { return g.vertices }

// HasVertex reports vertex membership.
func (g *Graph) HasVertex(id dataset.TupleID) bool {
	_, ok := g.index[id]
	return ok
}

// AddEdge inserts an edge; both endpoints must be vertices and distinct,
// and at most one edge may join a pair.
func (g *Graph) AddEdge(e Edge) error {
	ia, okA := g.index[e.A]
	ib, okB := g.index[e.B]
	if !okA || !okB {
		return fmt.Errorf("erg: edge (%d,%d) references unknown vertex", e.A, e.B)
	}
	if e.A == e.B {
		return fmt.Errorf("erg: self loop on %d", e.A)
	}
	for _, ei := range g.adj[ia] {
		ex := g.edges[ei]
		if (ex.A == e.A && ex.B == e.B) || (ex.A == e.B && ex.B == e.A) {
			return fmt.Errorf("erg: duplicate edge (%d,%d)", e.A, e.B)
		}
	}
	g.edges = append(g.edges, e)
	ei := len(g.edges) - 1
	g.adj[ia] = append(g.adj[ia], ei)
	g.adj[ib] = append(g.adj[ib], ei)
	return nil
}

// Edge returns a pointer to the i-th edge (benefit model mutates Benefit).
func (g *Graph) Edge(i int) *Edge { return &g.edges[i] }

// Edges returns all edges. The slice is the graph's own storage.
func (g *Graph) Edges() []Edge { return g.edges }

// SetRepair attaches (or replaces) a vertex repair; the vertex must exist.
func (g *Graph) SetRepair(r VertexRepair) error {
	if _, ok := g.index[r.ID]; !ok {
		return fmt.Errorf("erg: repair references unknown vertex %d", r.ID)
	}
	cp := r
	g.repairs[r.ID] = &cp
	return nil
}

// Repair returns the vertex repair of id, or nil.
func (g *Graph) Repair(id dataset.TupleID) *VertexRepair { return g.repairs[id] }

// Repairs returns all vertex repairs ordered by tuple id.
func (g *Graph) Repairs() []*VertexRepair {
	out := make([]*VertexRepair, 0, len(g.repairs))
	for _, r := range g.repairs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IncidentEdges returns the indices of edges touching id.
func (g *Graph) IncidentEdges(id dataset.TupleID) []int {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	return g.adj[i]
}

// Neighbors returns the adjacent vertex ids of id, sorted.
func (g *Graph) Neighbors(id dataset.TupleID) []dataset.TupleID {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	out := make([]dataset.TupleID, 0, len(g.adj[i]))
	for _, ei := range g.adj[i] {
		e := g.edges[ei]
		if e.A == id {
			out = append(out, e.B)
		} else {
			out = append(out, e.A)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// EdgeSortWeight is the weight GSS sorts by: the edge's own benefit plus
// the benefits of repairs on its endpoints (Example 5 folds the O-repair
// of t2 into edge (t1,t2)).
func (g *Graph) EdgeSortWeight(i int) float64 {
	e := g.edges[i]
	w := e.Benefit
	if r := g.repairs[e.A]; r != nil {
		w += r.Benefit
	}
	if r := g.repairs[e.B]; r != nil {
		w += r.Benefit
	}
	return w
}

// SubgraphBenefit is the total benefit of the subgraph induced by the
// vertex set: the sum of induced edge benefits plus each member vertex's
// repair benefit counted once. It runs in O(Σ deg(v)) over the members —
// selection algorithms evaluate many candidate subgraphs per call, so a
// full edge scan here would make GSS quadratic in the ERG size.
//
// Summation runs in a canonical order — the deduped vertex set sorted by
// tuple id — NOT the caller's slice order or map iteration order:
// floating-point addition is order-sensitive, and a per-run summation
// order produces last-ULP benefit differences that flip strict >
// comparisons in GSS and B&B — same seed, different CQG. Any two calls
// with the same vertex *set* return the same bits.
func (g *Graph) SubgraphBenefit(vertices []dataset.TupleID) float64 {
	in := make(map[dataset.TupleID]struct{}, len(vertices))
	ordered := make([]dataset.TupleID, 0, len(vertices))
	for _, v := range vertices {
		if _, dup := in[v]; dup {
			continue
		}
		in[v] = struct{}{}
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	total := 0.0
	seen := make(map[int]struct{})
	for _, v := range ordered {
		i, ok := g.index[v]
		if !ok {
			continue
		}
		for _, ei := range g.adj[i] {
			if _, dup := seen[ei]; dup {
				continue
			}
			e := g.edges[ei]
			if _, okA := in[e.A]; !okA {
				continue
			}
			if _, okB := in[e.B]; !okB {
				continue
			}
			seen[ei] = struct{}{}
			total += e.Benefit
		}
		if r := g.repairs[v]; r != nil {
			total += r.Benefit
		}
	}
	return total
}

// InducedSubgraph materializes the CQG on the vertex set, copying edges
// and repairs. Vertices missing from g are ignored.
func (g *Graph) InducedSubgraph(vertices []dataset.TupleID) *Graph {
	var kept []dataset.TupleID
	in := make(map[dataset.TupleID]struct{}, len(vertices))
	for _, v := range vertices {
		if !g.HasVertex(v) {
			continue
		}
		if _, dup := in[v]; dup {
			continue
		}
		in[v] = struct{}{}
		kept = append(kept, v)
	}
	sub := MustNew(kept)
	for _, e := range g.edges {
		if _, okA := in[e.A]; !okA {
			continue
		}
		if _, okB := in[e.B]; !okB {
			continue
		}
		if err := sub.AddEdge(e); err != nil {
			panic(err) // cannot happen: source graph had no duplicates
		}
	}
	for _, v := range kept {
		if r := g.repairs[v]; r != nil {
			if err := sub.SetRepair(*r); err != nil {
				panic(err)
			}
		}
	}
	return sub
}
