package pipeline

import (
	"slices"
	"sort"

	"visclean/internal/benefit"
	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/vql"
)

// deltaPricer prices hypotheses by incremental delta evaluation instead
// of the full view-rebuild-and-execute path. One pricer is built per
// iteration after freezeShared over the session's committed relation
// (committed.go): it evaluates through the incremental executors the
// relation registered over its rows and prices against the views'
// committed distance baselines, and each hypothesis then costs only its
// delta:
//
//   - an M/O cell override perturbs exactly one cluster's consolidated
//     row, and only its yCol cell;
//   - an A-approval rewrites only the clusters whose rows carry a value
//     of the two merged synonym classes, found through per-column
//     value→clusters posting lists, and only in that column;
//   - a T-answer changes the partition only where a fast path proves
//     it does (DESIGN.md §10; a cannot-link inside a cluster replays
//     just that cluster's merges), or else rebuilds the entity
//     partition (one union-find pass over the shared merge list) and
//     diffs it against the base partition; only base clusters that
//     are no longer intact are rebuilt in full, and the posting-dirty
//     clusters of the implied A-equations re-resolve just those
//     equations' columns.
//
// The partition diff is sound because every tuple belongs to exactly one
// base cluster: if a hypothetical cluster mixed tuples of an intact base
// cluster with others, that base cluster's root would have the wrong
// size and GroupIntact would have flagged it dirty. Dirty tuples can
// therefore be regrouped among themselves.
//
// Bit-identity: every float produced here is computed by the same code
// in the same order as a full rebuild of the hypothetical relation —
// rows and cells via viewRowFor and viewCellFor (shared with buildView;
// a row's columns resolve independently, so a committed row with its
// touched columns re-resolved equals the row rebuilt in full), charts
// via vql.Incremental (contract-tested against Execute), distances via
// distance.Baseline (replays Default's exact arithmetic). That rebuild
// is the tests' reference (PriceEveryHypothesis). The pricer is total:
// it prices every hypothesis, because a live tuple lies in exactly one
// base group, every value an A-question or T-pair equation names is a
// cell of a live tuple (so the posting index knows it), and repairs
// rewrite only yCol.
//
// The pricer is immutable after construction and safe for concurrent
// price calls: it reads only frozen session state, the committed
// relation (never written once built) and per-call private structures.
type deltaPricer struct {
	s *Session
	// views are the committed relation's views, in registration order.
	// Every view's executor is registered over the same committed rows
	// (the cleaned relation is query-independent), so one delta
	// materialization prices every view.
	views []committedView

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

	builder *em.ClusterBuilder
	// replay also knows which base groups hold an endpoint of a user
	// cannot-link (Touched); the T fast paths 3 and 4 (see priceVia)
	// are only sound for groups no cannot-link touches.
	replay *em.SplitReplay
}

// newDeltaPricer captures the base state of one iteration from the
// committed relation. Callers must freezeShared first. It fails only
// when a view's chart cannot be derived.
func (s *Session) newDeltaPricer() (*deltaPricer, error) {
	views, err := s.relViews()
	if err != nil {
		return nil, err
	}
	rel := s.relRows()
	p := &deltaPricer{
		s:       s,
		views:   views,
		groups:  rel.groups,
		rows:    rel.rows,
		ranks:   make([]int64, len(rel.groups)),
		groupOf: make(map[dataset.TupleID]int),
		posting: make(map[string]map[string][]int),
		rawRep:  make(map[string]map[string]string),
	}
	for gi, g := range p.groups {
		p.ranks[gi] = int64(g[0])
		for _, id := range g {
			p.groupOf[id] = gi
		}
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

	p.builder = em.NewClusterBuilder(s.table, s.mergeList, em.ClusterConfig{
		Confirmed: s.confirmed,
		Split:     s.split,
	})
	p.replay = p.builder.NewSplitReplay(p.groupOf)
	return p, nil
}

// pricePath names the way priceVia evaluated a hypothesis. DESIGN.md
// §10 numbers the partition-exact T fast paths 1–4.
type pricePath int

const (
	pathCell          pricePath = iota // M/O override of one cluster's measure cell
	pathApprove                        // A-approval: the posting-dirty clusters' A-column
	pathSplitApart                     // 1: cannot-link across two base clusters
	pathConfirmInside                  // 2: must-link inside one base cluster
	pathConfirmAcross                  // 3: must-link across two untouched clusters
	pathSplitInside                    // 4: cannot-link inside an untouched cluster, replayed alone
	pathRebuild                        // any other T-answer: partition rebuild and diff
	numPricePaths
)

// price evaluates one (canonicalized) hypothesis incrementally.
func (p *deltaPricer) price(h benefit.Hypothesis) float64 {
	dist, _ := p.priceVia(h)
	return dist
}

// priceVia is price, also naming the path it took. An inapplicable
// hypothesis (an unknown tuple, a column with no standardizer) prices
// as zero, as it would over the unchanged charts.
func (p *deltaPricer) priceVia(h benefit.Hypothesis) (float64, pricePath) {
	switch h.Kind {
	case benefit.MImpute, benefit.ORepair:
		// Overlay.Set refuses an unknown tuple and a non-numeric yCol.
		ov := p.s.table.Overlay()
		if ov.Set(h.ID, p.s.yCol, dataset.Num(h.Value)) != nil {
			return 0, pathCell
		}
		// The tuple is live, so it lies in exactly one base group.
		return p.eval(nil, nil, []int{p.groupOf[h.ID]}, []int{p.s.yCol}, p.s.std, ov), pathCell

	case benefit.AApprove:
		if p.s.std[h.Column] == nil {
			return 0, pathApprove
		}
		changes := []stdChange{{col: p.s.table.ColumnIndex(h.Column), name: h.Column, v1: h.V1, v2: h.V2}}
		return p.eval(nil, nil, p.postingDirty(changes), changeCols(changes), p.s.stdOverride(changes), nil), pathApprove
	}

	// A T-answer. Fast paths that skip the full union-find rebuild. Each
	// is provably partition-exact (see DESIGN.md §10 for the arguments;
	// the pricer-equivalence suite enforces bit-identity):
	//
	//   - a cannot-link between tuples already in different base
	//     clusters blocks nothing — had any merge been newly blocked,
	//     its first occurrence would require the two trajectories to
	//     unite, contradicting their distinct final groups. Partition
	//     unchanged.
	//   - a must-link inside one base cluster commutes with the merges
	//     that formed that cluster: the early union never introduces a
	//     block (a cannot-link between any two of the cluster's parts
	//     or absorbed groups would have prevented the cluster from
	//     forming). Partition unchanged; only the implied A-equations'
	//     posting-dirty groups re-resolve.
	//   - a must-link across two base clusters neither touched by any
	//     cannot-link is exactly their two-group union: any additional
	//     merge into the combined group would need a blocked/unblocked
	//     decision to flip, which requires a cannot-link endpoint inside
	//     one of the two groups.
	//   - a cannot-link inside a base cluster no cannot-link touches
	//     splits only that cluster, into the parts a replay of the
	//     merges inside it yields (em.SplitReplay): nothing inside the
	//     cluster interacts with anything outside it.
	giA, okA := p.groupOf[h.Pair.A]
	giB, okB := p.groupOf[h.Pair.B]
	if okA && okB {
		if h.Kind == benefit.TSplit {
			if giA != giB {
				return p.eval(nil, nil, nil, nil, p.s.std, nil), pathSplitApart
			}
			if parts, ok := p.replay.Split(giA, p.groups[giA], h.Pair); ok {
				return p.eval([]int{giA}, parts, nil, nil, p.s.std, nil), pathSplitInside
			}
		}
		if h.Kind == benefit.TConfirm {
			changes := p.s.tPairChanges(h.Pair)
			postDirty := p.postingDirty(changes)
			std := p.s.std
			if override := p.s.stdOverride(changes); override != nil {
				std = override
			}
			cols := changeCols(changes)
			if giA == giB {
				return p.eval(nil, nil, postDirty, cols, std, nil), pathConfirmInside
			}
			if !p.replay.Touched(giA) && !p.replay.Touched(giB) {
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
				return p.eval([]int{giA, giB}, [][]dataset.TupleID{merged}, retouched, cols, std, nil), pathConfirmAcross
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
	postDirty := p.postingDirty(changes)
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
		// A base group's members are live tuples, which every
		// hypothetical partition roots.
		root, _ := cl.Root(id)
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
	return p.eval(dissolved, regrouped, retouched, changeCols(changes), std, nil), pathRebuild
}

// postingDirty lists, ascending, the groups in the posting lists of
// every change's two value classes. Both values of a change are cells
// of live tuples, so the base index knows them.
func (p *deltaPricer) postingDirty(changes []stdChange) []int {
	var out []int
	for _, ch := range changes {
		reps := p.rawRep[ch.name]
		out = append(out, p.posting[ch.name][reps[ch.v1]]...)
		out = append(out, p.posting[ch.name][reps[ch.v2]]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
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
// returns the sum of the views' distances from their bases. Dissolved
// base groups give way to the regrouped member lists, whose rows
// consolidate in full. Retouched base groups keep their members, so
// their committed row is reused with only cols re-resolved under std
// and ov — a group with no committed row still has none.
func (p *deltaPricer) eval(dissolved []int, regrouped [][]dataset.TupleID, retouched, cols []int, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay) float64 {
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
	total := 0.0 // the views' sum, in registration order
	for _, cv := range p.views {
		total += cv.base.Distance(cv.exec.Eval(ranks, added))
	}
	return total
}
