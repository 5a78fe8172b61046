package pipeline

import (
	"math"
	"slices"
	"sort"

	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
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
// ok is false when the group yields no row (an id past the table).
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

// resolve elects the consolidated value of a column within one cluster:
// the most frequent non-null value, the last one seen of its group.
// Numeric values group as their strconv 'g' renderings do: equal bits,
// with every NaN in one group and −0 apart from +0. A tie between
// string groups goes to the lexicographically smallest text; a numeric
// tie to the median of all non-null values. Clusters are small, so
// each group is counted by a scan of the values rather than a map.
func resolve(vals []dataset.Value, kind dataset.Kind) dataset.Value {
	best, bestN, tie := -1, 0, false
	for i, v := range vals {
		if v.IsNull() || slices.ContainsFunc(vals[:i], func(u dataset.Value) bool { return sameGroup(u, v) }) {
			continue // null, or its group was counted at its first value
		}
		n, last := 1, i
		for j := i + 1; j < len(vals); j++ {
			if sameGroup(vals[j], v) {
				n, last = n+1, j
			}
		}
		switch {
		case n > bestN:
			best, bestN, tie = last, n, false
		case n == bestN:
			tie = true
			if kind == dataset.String && cellText(vals[last]) < cellText(vals[best]) {
				best = last
			}
		}
	}
	if best < 0 {
		return dataset.Null(kind)
	}
	if !tie || kind == dataset.String {
		return vals[best]
	}
	var nums []float64
	for _, v := range vals {
		if f, ok := v.Float(); ok {
			nums = append(nums, f)
		}
	}
	sort.Float64s(nums)
	mid := len(nums) / 2
	if len(nums)%2 == 1 {
		return dataset.Num(nums[mid])
	}
	return dataset.Num((nums[mid-1] + nums[mid]) / 2)
}

// sameGroup reports whether cell u counts as the non-null value v in
// resolve's vote.
func sameGroup(u, v dataset.Value) bool {
	if u.IsNull() {
		return false
	}
	fu, okU := u.Float()
	fv, okV := v.Float()
	if okU || okV {
		return okU && okV && (math.Float64bits(fu) == math.Float64bits(fv) || fu != fu && fv != fv)
	}
	return cellText(u) == cellText(v)
}

func cellText(v dataset.Value) string {
	s, _ := v.Text()
	return s
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

// freezeShared precomputes every lazy structure the pricing fan-out
// reads concurrently — the standardizers' path compression and
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
