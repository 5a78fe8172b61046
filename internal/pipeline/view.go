package pipeline

import (
	"sort"

	"visclean/internal/benefit"
	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/vis"
)

// buildView derives the cleaned relation the visualization runs over:
// entity clusters consolidate into one record each (golden record), and
// every A-question column is rewritten to its canonical value. The
// session's working table is untouched. A non-nil overlay substitutes
// cells on the fly (hypothetical M/O repairs) — the copy-on-write view
// from dataset.Overlay, which replaced the single-cell cellOverride
// struct and prices hypotheses at O(touched cells) without ever writing
// the shared table.
//
// Consolidation resolves each column by majority vote over the cluster's
// non-null values; numeric ties resolve to the median (the paper's
// ground-truth Table II consolidates Elaps' 42 and 44 citations to 43),
// string ties to the lexicographically smallest most-frequent value.
func (s *Session) buildView(cl *em.Clusters, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay) *dataset.Table {
	view := dataset.NewTable(s.table.Schema())
	for _, group := range cl.Groups(1) {
		if out, ok := s.viewRowFor(group, std, ov); ok {
			view.MustAppend(out)
		}
	}
	return view
}

// viewRowFor consolidates one entity cluster into its view row — the
// per-group core of buildView, exposed separately so the incremental
// hypothesis pricer can rebuild exactly the rows a hypothesis perturbs.
// ok is false when the group yields no row (vanished tuple).
func (s *Session) viewRowFor(group []dataset.TupleID, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay) ([]dataset.Value, bool) {
	if len(group) == 1 {
		if _, ok := s.table.RowIndex(group[0]); !ok {
			return nil, false
		}
	}
	out := make([]dataset.Value, s.table.NumCols())
	for c := range out {
		out[c] = s.viewCellFor(group, c, std, ov)
	}
	return out, true
}

// viewCellFor consolidates column c of one entity cluster. A row's
// columns resolve independently of each other, which is what lets the
// delta pricer keep a committed row and re-resolve only the columns a
// hypothesis touches.
func (s *Session) viewCellFor(group []dataset.TupleID, c int, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay) dataset.Value {
	col := s.table.Schema()[c]
	st := std[col.Name]
	cell := func(id dataset.TupleID, v dataset.Value) dataset.Value {
		if ov != nil {
			if pv, ok := ov.Patch(id, c); ok {
				v = pv
			}
		}
		if st == nil {
			return v
		}
		txt, ok := v.Text()
		if !ok {
			return v
		}
		return dataset.Str(st.Canonical(txt))
	}

	if len(group) == 1 {
		v, _ := s.table.GetByID(group[0], c)
		return cell(group[0], v)
	}
	vals := make([]dataset.Value, 0, len(group))
	for _, id := range group {
		v, ok := s.table.GetByID(id, c)
		if !ok {
			continue
		}
		vals = append(vals, cell(id, v))
	}
	return resolve(vals, col.Kind)
}

// resolve elects the consolidated value of a column within one cluster.
func resolve(vals []dataset.Value, kind dataset.Kind) dataset.Value {
	counts := map[string]int{}
	byKey := map[string]dataset.Value{}
	var nums []float64
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		key := v.String()
		counts[key]++
		byKey[key] = v
		if f, ok := v.Float(); ok {
			nums = append(nums, f)
		}
	}
	if len(counts) == 0 {
		return dataset.Null(kind)
	}
	// Majority, deterministic tiebreaks.
	bestKey := ""
	bestCount := 0
	tie := false
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case counts[k] > bestCount:
			bestKey, bestCount, tie = k, counts[k], false
		case counts[k] == bestCount:
			tie = true
		}
	}
	if !tie || kind == dataset.String {
		return byKey[bestKey]
	}
	// Numeric tie: median of all non-null values.
	sort.Float64s(nums)
	mid := len(nums) / 2
	if len(nums)%2 == 1 {
		return dataset.Num(nums[mid])
	}
	return dataset.Num((nums[mid-1] + nums[mid]) / 2)
}

// CleanedView materializes the current cleaned relation: entity clusters
// consolidated into golden records and attribute values standardized.
// Per the paper's closing remark, these repairs are best treated as a
// materialized view / suggestions for a DBA rather than destructive
// updates — this accessor is that view. It derives the relation from
// scratch every call, so it is the reference the committed relation's
// charts are checked against.
func (s *Session) CleanedView() *dataset.Table {
	return s.buildView(s.clusters, s.std, nil)
}

// hypotheticalVis derives the visualization that one hypothetical user
// answer would produce, leaving all session state untouched. Returns nil
// when the hypothesis is inapplicable (e.g. a vanished tuple).
//
// This is the callback the parallel benefit engine fans out, so it must
// be safe for concurrent calls: it only reads session state (the
// working table, the merge list, the frozen standardizers and clusters —
// see freezeShared) and builds private clusters / standardizer
// clones / view tables per call. Hypothetical repairs substitute cell
// values through overrides instead of writing to the shared table.
func (s *Session) hypotheticalVis(h benefit.Hypothesis) *vis.Data {
	cl, std, ov, ok := s.hypotheticalState(h)
	if !ok {
		return nil
	}
	return s.execView(cl, std, ov)
}

// hypotheticalState derives the cleaned-relation inputs — clusters,
// standardizers, cell overlay — that one hypothetical answer implies.
// ok=false means the hypothesis is inapplicable (e.g. a vanished
// tuple). Shared by the single-view and multi-view hypothetical chart
// builders, so both price against the identical relation.
func (s *Session) hypotheticalState(h benefit.Hypothesis) (cl *em.Clusters, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay, ok bool) {
	switch h.Kind {
	case benefit.TConfirm:
		cl = s.buildClusters([]em.Pair{h.Pair}, nil)
		// Confirming tuples also equates their A-column values (§VI
		// label-edge semantics), so standardize them hypothetically.
		std = s.std
		if override := s.tPairStandardizers(h.Pair); override != nil {
			std = override
		}
		return cl, std, nil, true
	case benefit.TSplit:
		return s.buildClusters(nil, []em.Pair{h.Pair}), s.std, nil, true
	case benefit.AApprove:
		st := s.std[h.Column]
		if st == nil {
			return nil, nil, nil, false
		}
		override := cloneStdMap(s.std)
		clone := st.Clone()
		clone.Approve(h.V1, h.V2)
		override[h.Column] = clone
		return s.clusters, override, nil, true
	case benefit.MImpute, benefit.ORepair:
		// Overlay.Set enforces both the id's existence and the numeric
		// kind of the measure column — the checks the old
		// write-then-restore path got for free from Table.Set.
		ov = s.table.Overlay()
		if ov.Set(h.ID, s.yCol, dataset.Num(h.Value)) != nil {
			return nil, nil, nil, false
		}
		return s.clusters, s.std, ov, true
	default:
		return nil, nil, nil, false
	}
}

// hypotheticalVisAll derives every view's chart under one hypothetical
// answer, sharing a single cleaned-relation build across the views. A
// nil return means the hypothesis is inapplicable; a nil element means
// that one view's query failed over the hypothetical relation (its term
// prices as zero). Same concurrency contract as hypotheticalVis.
func (s *Session) hypotheticalVisAll(h benefit.Hypothesis) []*vis.Data {
	cl, std, ov, ok := s.hypotheticalState(h)
	if !ok {
		return nil
	}
	view := s.buildView(cl, std, ov)
	out := make([]*vis.Data, len(s.queries))
	for v, q := range s.queries {
		if d, err := q.Execute(view); err == nil {
			out[v] = d
		}
	}
	return out
}

// freezeShared precomputes every lazy structure the hypothetical-vis
// fan-out reads concurrently — the standardizers' path compression and
// canonical-value caches, and the entity clusters' union-find — so that
// during annotation they are touched without a single write. Called
// before each benefit annotation; Approve/merge re-dirty them, but
// answers are only applied after selection, never during annotation.
func (s *Session) freezeShared() {
	for _, st := range s.std {
		st.Freeze()
	}
	s.clusters.Freeze()
}

// stdChange is one hypothetical value equation in one A-column. The
// incremental pricer uses the (v1, v2) pair to find the rows the change
// can touch through its value→rows posting lists.
type stdChange struct {
	col    int
	name   string
	v1, v2 string
}

// tPairChanges lists the A-column value equations that confirming the
// pair implies (§VI label-edge semantics): one per A-column where the
// two tuples carry differing text values.
func (s *Session) tPairChanges(p em.Pair) []stdChange {
	schema := s.table.Schema()
	var out []stdChange
	for _, c := range s.aColumns {
		va, okA := s.table.GetByID(p.A, c)
		vb, okB := s.table.GetByID(p.B, c)
		if !okA || !okB {
			continue
		}
		ta, okA := va.Text()
		tb, okB := vb.Text()
		if !okA || !okB || ta == tb {
			continue
		}
		out = append(out, stdChange{col: c, name: schema[c].Name, v1: ta, v2: tb})
	}
	return out
}

// tPairStandardizers returns a standardizer override where the pair's
// values in every A-column are equated, or nil when nothing changes.
func (s *Session) tPairStandardizers(p em.Pair) map[string]*goldenrec.Standardizer {
	return s.stdOverride(s.tPairChanges(p))
}

// stdOverride clones the standardizer map and applies each change as a
// hypothetical approval, or returns nil when changes is empty.
func (s *Session) stdOverride(changes []stdChange) map[string]*goldenrec.Standardizer {
	var override map[string]*goldenrec.Standardizer
	for _, ch := range changes {
		if override == nil {
			override = cloneStdMap(s.std)
		}
		clone := override[ch.name].Clone()
		clone.Approve(ch.v1, ch.v2)
		override[ch.name] = clone
	}
	return override
}

func cloneStdMap(in map[string]*goldenrec.Standardizer) map[string]*goldenrec.Standardizer {
	out := make(map[string]*goldenrec.Standardizer, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// execView builds the view and executes the query, returning nil on
// execution errors (hypotheses must never abort an iteration).
func (s *Session) execView(cl *em.Clusters, std map[string]*goldenrec.Standardizer, ov *dataset.Overlay) *vis.Data {
	view := s.buildView(cl, std, ov)
	d, err := s.queries[0].Execute(view)
	if err != nil {
		return nil
	}
	return d
}
