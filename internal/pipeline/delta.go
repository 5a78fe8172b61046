package pipeline

import (
	"sort"

	"visclean/internal/benefit"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/vql"
)

// deltaPricer prices hypotheses by incremental delta evaluation instead
// of the full view-rebuild-and-execute path. One pricer is built per
// iteration after freezeShared over the session's committed relation
// (committed.go): it registers the committed rows with one incremental
// query executor per view and prices against the views' committed
// distance baselines, and each hypothesis then costs only its delta:
//
//   - an M/O cell override perturbs exactly one cluster's consolidated
//     row, and only its yCol cell;
//   - an A-approval rewrites only the clusters whose rows carry a value
//     of the two merged synonym classes, found through per-column
//     value→clusters posting lists, and only in that column;
//   - a T-answer rebuilds the entity partition (cheap: one union-find
//     pass over the shared merge list) and diffs it against the base
//     partition — only base clusters that are no longer intact are
//     rebuilt in full; the posting-dirty clusters of the implied
//     A-equations re-resolve just those equations' columns.
//
// The partition diff is sound because every tuple belongs to exactly one
// base cluster: if a hypothetical cluster mixed tuples of an intact base
// cluster with others, that base cluster's root would have the wrong
// size and GroupIntact would have flagged it dirty. Dirty tuples can
// therefore be regrouped among themselves.
//
// Bit-identity: every float produced here is computed by the same code
// in the same order as the full path — rows and cells via viewRowFor
// and viewCellFor (shared with buildView; a row's columns resolve
// independently, so a committed row with its touched columns
// re-resolved equals the row rebuilt in full), charts via
// vql.Incremental (contract-tested against Execute), distances via
// distance.Baseline (replays Default's exact arithmetic). price returns
// ok=false whenever a hypothesis falls outside the incremental fast path
// (unknown value, construction failure); the estimator then falls back
// to the full rebuild, so correctness never depends on coverage.
//
// The pricer is immutable after construction and safe for concurrent
// price calls: it reads only frozen session state, the committed
// relation (never written once built) and per-call private structures.
type deltaPricer struct {
	s *Session
	// bases / execs hold one distance baseline and one incremental
	// executor per registered view, in registration order. All
	// executors are registered over the same committed rows (the cleaned
	// relation is query-independent), so one delta materialization
	// prices every view.
	bases []*distance.Baseline
	execs []*vql.Incremental

	groups  [][]dataset.TupleID // committed partition, Groups(1) order
	rows    [][]dataset.Value   // committed rows; nil when a group has none
	ranks   []int64             // ranks[gi] = int64(groups[gi][0])
	groupOf map[dataset.TupleID]int

	// posting[col][rep] lists the groups (ascending) with a member whose
	// col value canonicalizes to rep; rawRep[col][raw] resolves a raw
	// value to its canonical representative under the frozen base
	// standardizers. Both are built single-threaded here because
	// Standardizer.Canonical may write its cache on first sight of a
	// value — at price time only these read-only maps are consulted.
	posting map[string]map[string][]int
	rawRep  map[string]map[string]string

	// splitTouched[gi] marks base groups containing an endpoint of a
	// user cannot-link. T-hypothesis fast paths (see price) are only
	// sound for groups no cannot-link touches.
	splitTouched []bool

	builder  *em.ClusterBuilder
	yNumeric bool
}

// newDeltaPricer captures the base state of one iteration from the
// committed relation. Callers must freezeShared first. Returns nil when
// a view's chart cannot be derived or its query cannot be evaluated
// incrementally (the estimator then uses the full path throughout).
func (s *Session) newDeltaPricer() *deltaPricer {
	if _, err := s.relCharts(); err != nil {
		return nil
	}
	rel := s.relRows()
	p := &deltaPricer{
		s:        s,
		bases:    s.relBaselines(),
		groups:   rel.groups,
		rows:     rel.rows,
		groupOf:  make(map[dataset.TupleID]int),
		posting:  make(map[string]map[string][]int),
		rawRep:   make(map[string]map[string]string),
		yNumeric: s.table.Schema()[s.yCol].Kind == dataset.Float,
	}
	p.ranks = make([]int64, len(p.groups))

	rows := make([]vql.IncRow, 0, len(p.groups))
	for gi, g := range p.groups {
		p.ranks[gi] = int64(g[0])
		for _, id := range g {
			p.groupOf[id] = gi
		}
		if p.rows[gi] != nil {
			rows = append(rows, vql.IncRow{Rank: p.ranks[gi], Vals: p.rows[gi]})
		}
	}
	p.execs = make([]*vql.Incremental, len(s.queries))
	for v, q := range s.queries {
		exec, err := q.NewIncremental(s.table.Schema(), rows)
		if err != nil {
			return nil
		}
		p.execs[v] = exec
	}

	schema := s.table.Schema()
	for _, c := range s.aColumns {
		name := schema[c].Name
		st := s.std[name]
		if st == nil {
			continue
		}
		reps := make(map[string]string)
		lists := make(map[string][]int)
		for gi, g := range p.groups {
			for _, id := range g {
				v, ok := s.table.GetByID(id, c)
				if !ok {
					continue
				}
				txt, ok := v.Text()
				if !ok {
					continue
				}
				rep, seen := reps[txt]
				if !seen {
					rep = st.Canonical(txt)
					reps[txt] = rep
				}
				if l := lists[rep]; len(l) == 0 || l[len(l)-1] != gi {
					lists[rep] = append(l, gi)
				}
			}
		}
		p.rawRep[name] = reps
		p.posting[name] = lists
	}

	p.splitTouched = make([]bool, len(p.groups))
	for _, sp := range s.split {
		if gi, ok := p.groupOf[sp.A]; ok {
			p.splitTouched[gi] = true
		}
		if gi, ok := p.groupOf[sp.B]; ok {
			p.splitTouched[gi] = true
		}
	}

	p.builder = em.NewClusterBuilder(s.table, s.mergeList, em.ClusterConfig{
		Threshold: s.cfg.ClusterThreshold,
		Confirmed: s.confirmed,
		Split:     s.split,
	})
	return p
}

// price evaluates one (canonicalized) hypothesis incrementally. ok=false
// requests the full-rebuild fallback.
func (p *deltaPricer) price(h benefit.Hypothesis) (float64, bool) {
	switch h.Kind {
	case benefit.MImpute, benefit.ORepair:
		// Guards mirror hypotheticalVis: an inapplicable repair prices as
		// zero on the full path (nil hypothetical chart).
		if _, ok := p.s.table.RowIndex(h.ID); !ok {
			return 0, true
		}
		if !p.yNumeric {
			return 0, true
		}
		gi, ok := p.groupOf[h.ID]
		if !ok {
			return 0, false
		}
		ov := p.s.table.Overlay()
		if ov.Set(h.ID, p.s.yCol, dataset.Num(h.Value)) != nil {
			return 0, false
		}
		return p.eval(nil, nil, []int{gi}, []int{p.s.yCol}, p.s.std, ov)

	case benefit.AApprove:
		if p.s.std[h.Column] == nil {
			return 0, true // full path: nil hypothetical chart
		}
		changes := []stdChange{{col: p.s.table.ColumnIndex(h.Column), name: h.Column, v1: h.V1, v2: h.V2}}
		dirty, ok := p.postingDirty(changes)
		if !ok {
			return 0, false
		}
		return p.eval(nil, nil, dirty, changeCols(changes), p.s.stdOverride(changes), nil)

	case benefit.TConfirm, benefit.TSplit:
		// Fast paths that skip the union-find rebuild entirely. Each is
		// provably partition-exact (see DESIGN.md §10 for the arguments;
		// the pricer-equivalence suite enforces bit-identity):
		//
		//   - a cannot-link between tuples already in different base
		//     clusters blocks nothing — had any merge been newly
		//     blocked, its first occurrence would require the two
		//     trajectories to unite, contradicting their distinct final
		//     groups. Partition unchanged.
		//   - a must-link inside one base cluster commutes with the
		//     merges that formed that cluster: the early union never
		//     introduces a block (a cannot-link between any two of the
		//     cluster's parts or absorbed groups would have prevented
		//     the cluster from forming). Partition unchanged; only the
		//     implied A-equations' posting-dirty groups re-resolve.
		//   - a must-link across two base clusters neither touched by
		//     any cannot-link is exactly their two-group union: any
		//     additional merge into the combined group would need a
		//     blocked/unblocked decision to flip, which requires a
		//     cannot-link endpoint inside one of the two groups.
		giA, okA := p.groupOf[h.Pair.A]
		giB, okB := p.groupOf[h.Pair.B]
		if okA && okB {
			if h.Kind == benefit.TSplit && giA != giB {
				return p.eval(nil, nil, nil, nil, p.s.std, nil)
			}
			if h.Kind == benefit.TConfirm {
				changes := p.s.tPairChanges(h.Pair)
				postDirty, ok := p.postingDirty(changes)
				if !ok {
					return 0, false
				}
				std := p.s.std
				if override := p.s.stdOverride(changes); override != nil {
					std = override
				}
				cols := changeCols(changes)
				if giA == giB {
					return p.eval(nil, nil, postDirty, cols, std, nil)
				}
				if !p.splitTouched[giA] && !p.splitTouched[giB] {
					merged := make([]dataset.TupleID, 0, len(p.groups[giA])+len(p.groups[giB]))
					merged = append(merged, p.groups[giA]...)
					merged = append(merged, p.groups[giB]...)
					sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
					retouched := make([]int, 0, len(postDirty))
					for _, gi := range postDirty {
						if gi != giA && gi != giB {
							retouched = append(retouched, gi)
						}
					}
					return p.eval([]int{giA, giB}, [][]dataset.TupleID{merged}, retouched, cols, std, nil)
				}
			}
		}

		var cl *em.Clusters
		var changes []stdChange
		if h.Kind == benefit.TConfirm {
			cl = p.builder.Build([]em.Pair{h.Pair}, nil)
			changes = p.s.tPairChanges(h.Pair)
		} else {
			cl = p.builder.Build(nil, []em.Pair{h.Pair})
		}
		postDirty, ok := p.postingDirty(changes)
		if !ok {
			return 0, false
		}
		std := p.s.std
		if override := p.s.stdOverride(changes); override != nil {
			std = override
		}

		// Partition diff: base clusters no longer intact are dissolved and
		// their tuples regrouped by their hypothetical root.
		var dissolved []int
		var dirtyTuples []dataset.TupleID
		partDirty := make(map[int]struct{})
		for gi, g := range p.groups {
			if !cl.GroupIntact(g) {
				dissolved = append(dissolved, gi)
				partDirty[gi] = struct{}{}
				dirtyTuples = append(dirtyTuples, g...)
			}
		}
		byRoot := make(map[int][]dataset.TupleID)
		var rootOrder []int
		for _, id := range dirtyTuples {
			root, ok := cl.Root(id)
			if !ok {
				return 0, false
			}
			if _, seen := byRoot[root]; !seen {
				rootOrder = append(rootOrder, root)
			}
			byRoot[root] = append(byRoot[root], id)
		}
		regrouped := make([][]dataset.TupleID, 0, len(rootOrder))
		for _, root := range rootOrder {
			members := byRoot[root]
			sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
			regrouped = append(regrouped, members)
		}
		// Posting-dirty clusters keep their membership but re-resolve the
		// equated columns (unless already dissolved).
		retouched := make([]int, 0, len(postDirty))
		for _, gi := range postDirty {
			if _, gone := partDirty[gi]; !gone {
				retouched = append(retouched, gi)
			}
		}
		return p.eval(dissolved, regrouped, retouched, changeCols(changes), std, nil)

	default:
		return 0, false
	}
}

// postingDirty lists, ascending, the groups in the posting lists of
// every change's two value classes. ok=false when a value is unknown to
// the base index.
func (p *deltaPricer) postingDirty(changes []stdChange) ([]int, bool) {
	var out []int
	for _, ch := range changes {
		reps := p.rawRep[ch.name]
		if reps == nil {
			return nil, false
		}
		r1, ok1 := reps[ch.v1]
		r2, ok2 := reps[ch.v2]
		if !ok1 || !ok2 {
			return nil, false
		}
		out = append(out, p.posting[ch.name][r1]...)
		out = append(out, p.posting[ch.name][r2]...)
	}
	sort.Ints(out)
	return dedupSortedInts(out), true
}

// changeCols lists the columns a set of value equations rewrites.
func changeCols(changes []stdChange) []int {
	cols := make([]int, len(changes))
	for i, ch := range changes {
		cols[i] = ch.col
	}
	return cols
}

// eval materializes one hypothesis's delta into every view's chart and
// returns its (weighted) distance from the base. Dissolved base groups
// give way to the regrouped member lists, whose rows consolidate in
// full. Retouched base groups keep their members, so their committed
// row is reused with only cols re-resolved under std and ov — a group
// with no committed row still has none.
func (p *deltaPricer) eval(dissolved []int, regrouped [][]dataset.TupleID, retouched, cols []int, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay) (float64, bool) {
	ranks := make([]int64, 0, len(dissolved)+len(retouched))
	added := make([]vql.IncRow, 0, len(regrouped)+len(retouched))
	for _, gi := range dissolved {
		if p.rows[gi] != nil {
			ranks = append(ranks, p.ranks[gi])
		}
	}
	for _, gi := range retouched {
		if p.rows[gi] == nil {
			continue
		}
		row := append([]dataset.Value(nil), p.rows[gi]...)
		for _, c := range cols {
			row[c] = p.s.viewCellFor(p.groups[gi], c, std, ov)
		}
		ranks = append(ranks, p.ranks[gi])
		added = append(added, vql.IncRow{Rank: p.ranks[gi], Vals: row})
	}
	for _, g := range regrouped {
		if vals, ok := p.s.viewRowFor(g, std, ov); ok {
			added = append(added, vql.IncRow{Rank: int64(g[0]), Vals: vals})
		}
	}
	sort.Slice(added, func(a, b int) bool { return added[a].Rank < added[b].Rank })
	if len(p.execs) == 1 {
		// Single view: the historical scalar path, kept separate so the
		// N=1 session stays bit-identical even against a Dist that
		// returns -0.0 (0 + -0.0 would flip the sign bit).
		return p.bases[0].Distance(p.execs[0].Eval(ranks, added)), true
	}
	total := 0.0
	for v := range p.execs {
		total += p.s.viewWeights[v] * p.bases[v].Distance(p.execs[v].Eval(ranks, added))
	}
	return total, true
}
