package vql

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// This file implements the incremental query executor backing delta
// hypothesis pricing: the pipeline registers the base view's rows once,
// and each hypothetical repair is then evaluated as a (removed rows,
// added rows) delta instead of a full re-execution. The contract is
// bit-identity: Eval must return exactly the chart Execute would produce
// over the equivalent full row set — same points, same float bits, same
// order. Every float accumulation (per-group aggregation) therefore runs
// through the same code in the same order as Execute, and every ordering
// decision (appearance order, the SORT comparator, LIMIT) reproduces
// Execute's: the chart order is the comparator, then appearance order,
// which is exactly what Execute's stable sort of appearance-ordered
// groups yields.

// IncRow is one logical row of the view the incremental executor runs
// over. Rank is the row's stable order key: rows execute in ascending
// Rank order, and a delta identifies removed rows by Rank. The pipeline
// uses the owning entity cluster's smallest tuple id, which is unique
// per cluster and reproduces the view's row order. Vals must not be
// mutated after registration.
type IncRow struct {
	Rank int64
	Vals []dataset.Value
}

// contrib is one row's pre-resolved effect on the chart.
type contrib struct {
	rank   int64
	routed bool          // passes WHERE and carries a usable X
	key    string        // group label (TransformGroup)
	bin    int64         // bin id (TransformBin)
	y      dataset.Value // value fed to the aggregate
	point  vis.Point     // direct mark (TransformNone)
	hasPt  bool
}

// contribRef is one aggregated contribution retained per group.
type contribRef struct {
	rank int64
	y    dataset.Value
}

// mark is one group's or bin's folded aggregate and the keys that place
// it in the chart: its label, its bin id and its first contributing rank.
type mark struct {
	label string // group label, or the bin's "[lo,hi)" label
	bin   int64
	first int64 // rank of the first contributor (appearance order)
	y     float64
	ok    bool // the group draws a mark
}

// keyState is one base group or bin.
type keyState struct {
	mark
	contribs []contribRef // ascending rank = execution order
	pos      int          // index in Incremental.sorted; -1 without a mark
}

// refold is one group or bin a delta touches, re-folded for one Eval
// call: a dirty base state, or (base == nil) a group the delta creates.
type refold struct {
	mark
	base *keyState
	adds []contribRef // ascending rank
}

// Incremental evaluates one query over a registered base row set plus
// per-call deltas. Construction costs one full pass. For GROUP and BIN,
// Eval costs the delta's rows and the touched groups' contributors plus
// the LIMIT points it emits: it re-folds only the dirty and new groups,
// sorts just those and merges them into the base marks, presorted in
// final chart order, stopping at LIMIT. An Incremental is immutable
// after construction, so concurrent Eval calls are safe.
type Incremental struct {
	q     *Query
	xi    int
	yi    int
	wcols []int

	rows    []contrib
	rankPos map[int64]int

	keys map[string]*keyState // TransformGroup
	bins map[int64]*keyState  // TransformBin
	// sorted holds the base states that draw a mark, in final chart
	// order: the query's comparator, then appearance order (first
	// contributing rank for GROUP, bin id for BIN).
	sorted []*keyState

	// basePts is the base chart, computed once at construction. The
	// empty-delta path (Base, and every price whose delta is empty)
	// copies it.
	basePts []vis.Point
}

// NewIncremental validates the query against the schema and registers
// the base rows, which must arrive in strictly ascending Rank order (the
// order Execute would scan them in).
func (q *Query) NewIncremental(schema dataset.Schema, rows []IncRow) (*Incremental, error) {
	if err := q.Validate(schema); err != nil {
		return nil, err
	}
	inc := &Incremental{
		q:       q,
		xi:      schema.Index(q.X),
		yi:      schema.Index(q.Y),
		rankPos: make(map[int64]int, len(rows)),
	}
	inc.wcols = make([]int, len(q.Where))
	for k, p := range q.Where {
		inc.wcols[k] = schema.Index(p.Column)
	}

	inc.rows = make([]contrib, len(rows))
	for i, r := range rows {
		if i > 0 && rows[i-1].Rank >= r.Rank {
			return nil, fmt.Errorf("vql: incremental rows must have strictly ascending ranks (%d after %d)", r.Rank, rows[i-1].Rank)
		}
		inc.rows[i] = inc.contribution(r)
		inc.rankPos[r.Rank] = i
	}

	if q.Transform == TransformNone {
		data := &vis.Data{Points: inc.evalNone(nil, nil)}
		q.sortPoints(data)
		inc.basePts = limitPoints(data.Points, q.Limit)
		return inc, nil
	}

	// Appearance order: first contributing rank for GROUP, bin id for BIN.
	var order []*keyState
	if q.Transform == TransformGroup {
		inc.keys = make(map[string]*keyState)
	} else {
		inc.bins = make(map[int64]*keyState)
	}
	for _, c := range inc.rows {
		if !c.routed {
			continue
		}
		st := inc.stateOf(&c)
		if st == nil {
			st = &keyState{mark: inc.newMark(&c), pos: -1}
			if q.Transform == TransformGroup {
				inc.keys[c.key] = st
			} else {
				inc.bins[c.bin] = st
			}
			order = append(order, st)
		}
		st.contribs = append(st.contribs, contribRef{rank: c.rank, y: c.y})
	}
	if q.Transform == TransformBin {
		slices.SortFunc(order, func(a, b *keyState) int { return cmp.Compare(a.bin, b.bin) })
	}
	for _, st := range order {
		inc.fold(&st.mark, st.contribs, nil, nil)
		if st.ok {
			inc.sorted = append(inc.sorted, st)
		}
	}
	// Execute's second stable sort, over appearance-ordered input.
	slices.SortStableFunc(inc.sorted, func(a, b *keyState) int {
		return q.comparePoints(inc.point(&a.mark), inc.point(&b.mark))
	})
	for i, st := range inc.sorted {
		st.pos = i
	}
	inc.basePts = inc.evalKeyed(nil, nil)
	return inc, nil
}

// newMark starts the state of the group or bin a routed contribution
// opens; the bin label is formatted once here, not per Eval.
func (inc *Incremental) newMark(c *contrib) mark {
	if inc.q.Transform == TransformGroup {
		return mark{label: c.key}
	}
	lo := float64(c.bin) * inc.q.BinInterval
	return mark{label: binLabel(lo, lo+inc.q.BinInterval), bin: c.bin}
}

// point is the chart point of a mark, built exactly as Execute builds it.
func (inc *Incremental) point(m *mark) vis.Point {
	if inc.q.Transform == TransformGroup {
		return vis.Point{Label: m.label, Y: m.y}
	}
	return vis.Point{Label: m.label, X: float64(m.bin) * inc.q.BinInterval, HasX: true, Y: m.y}
}

// compareMarks orders two marks as the final chart does: the query's
// comparator, then appearance order. Appearance keys are unique per
// group, so the order is total, NaN marks included.
func (inc *Incremental) compareMarks(a, b *mark) int {
	if c := inc.q.comparePoints(inc.point(a), inc.point(b)); c != 0 {
		return c
	}
	if inc.q.Transform == TransformGroup {
		return cmp.Compare(a.first, b.first)
	}
	return cmp.Compare(a.bin, b.bin)
}

// fold streams a group's surviving base contributors and its added ones,
// merged in ascending rank order, through one aggState: the additions
// Execute makes, in its order, so the float bits agree. rm is sorted and
// removes by rank from base only. A group left without contributors
// draws no mark.
func (inc *Incremental) fold(m *mark, base, adds []contribRef, rm []int64) {
	var st aggState
	seen := false
	add := func(c contribRef) {
		if !seen {
			m.first, seen = c.rank, true
		}
		st.add(c.y)
	}
	j, r := 0, 0
	for _, c := range base {
		for j < len(adds) && adds[j].rank < c.rank {
			add(adds[j])
			j++
		}
		for r < len(rm) && rm[r] < c.rank {
			r++
		}
		if r < len(rm) && rm[r] == c.rank {
			continue
		}
		add(c)
	}
	for ; j < len(adds); j++ {
		add(adds[j])
	}
	m.y, m.ok = st.result(inc.q.Agg)
	m.ok = m.ok && seen
}

// contribution resolves one row against the query, mirroring Execute's
// per-row logic (WHERE, key routing, null handling) exactly.
func (inc *Incremental) contribution(r IncRow) contrib {
	c := contrib{rank: r.Rank}
	for k, p := range inc.q.Where {
		if !matches(r.Vals[inc.wcols[k]], p) {
			return c
		}
	}
	xv := r.Vals[inc.xi]
	switch inc.q.Transform {
	case TransformNone:
		yv := r.Vals[inc.yi]
		if xv.IsNull() || yv.IsNull() {
			return c
		}
		y, _ := yv.Float()
		pt := vis.Point{Label: xv.String(), Y: y}
		if f, ok := xv.Float(); ok {
			pt.X, pt.HasX = f, true
		}
		c.point, c.hasPt = pt, true
	case TransformGroup:
		key, ok := xv.Text()
		if !ok {
			if xv.IsNull() {
				return c
			}
			key = xv.String()
		}
		c.key, c.y, c.routed = key, r.Vals[inc.yi], true
	case TransformBin:
		x, ok := xv.Float()
		if !ok {
			return c
		}
		c.bin = int64(math.Floor(x / inc.q.BinInterval))
		c.y, c.routed = r.Vals[inc.yi], true
	}
	return c
}

// Eval produces the chart for the base row set with the rows named in
// removed (by rank) dropped and the added rows inserted at their rank
// positions. added must be in ascending rank order; an added rank may
// reuse a removed one (a merged cluster inherits the smaller first id).
// The result is bit-identical to Execute over the equivalent view.
func (inc *Incremental) Eval(removed []int64, added []IncRow) *vis.Data {
	data := &vis.Data{Type: inc.q.Chart, XField: inc.q.X, YField: inc.q.Y}

	// Empty delta: the answer is the precomputed base chart, copied so
	// callers may mutate it.
	if len(removed) == 0 && len(added) == 0 {
		if len(inc.basePts) > 0 {
			data.Points = append([]vis.Point(nil), inc.basePts...)
		}
		return data
	}

	if inc.q.Transform == TransformNone {
		data.Points = inc.evalNone(removed, added)
		inc.q.sortPoints(data)
		data.Points = limitPoints(data.Points, inc.q.Limit)
		return data
	}
	data.Points = inc.evalKeyed(removed, added)
	return data
}

// Base returns the chart of the unmodified base row set.
func (inc *Incremental) Base() *vis.Data {
	return inc.Eval(nil, nil)
}

func limitPoints(pts []vis.Point, limit int) []vis.Point {
	if limit > 0 && len(pts) > limit {
		return pts[:limit]
	}
	return pts
}

func removedSet(removed []int64) map[int64]struct{} {
	if len(removed) == 0 {
		return nil
	}
	set := make(map[int64]struct{}, len(removed))
	for _, r := range removed {
		set[r] = struct{}{}
	}
	return set
}

// evalNone assembles the direct-mark point list: surviving base points
// and added points merged in rank order.
func (inc *Incremental) evalNone(removed []int64, added []IncRow) []vis.Point {
	rm := removedSet(removed)
	var pts []vis.Point
	j := 0
	emitAddedBefore := func(rank int64) {
		for j < len(added) && added[j].Rank < rank {
			if c := inc.contribution(added[j]); c.hasPt {
				pts = append(pts, c.point)
			}
			j++
		}
	}
	for i := range inc.rows {
		c := &inc.rows[i]
		emitAddedBefore(c.rank)
		if _, gone := rm[c.rank]; gone {
			continue
		}
		if c.hasPt {
			pts = append(pts, c.point)
		}
	}
	emitAddedBefore(math.MaxInt64)
	return pts
}

// evalKeyed assembles the grouped/binned chart: it re-folds the groups
// the delta touches, sorts those, and merges them into the presorted
// base marks, skipping the dirty ones, until LIMIT points are out.
func (inc *Incremental) evalKeyed(removed []int64, added []IncRow) []vis.Point {
	var rm []int64
	if len(removed) > 0 {
		rm = slices.Clone(removed)
		slices.Sort(rm)
	}

	// Collect the touched groups: dirty base states by removed rank and
	// by added row, new groups by key, each with its additions in rank
	// order. A delta touches few groups, so a linear search finds them.
	var touched []refold
	slot := func(st *keyState, c *contrib) int {
		for i := range touched {
			t := &touched[i]
			if t.base != st {
				continue
			}
			if st != nil || (inc.q.Transform == TransformGroup && t.label == c.key) ||
				(inc.q.Transform == TransformBin && t.bin == c.bin) {
				return i
			}
		}
		t := refold{base: st}
		if st != nil {
			t.mark = st.mark
		} else {
			t.mark = inc.newMark(c)
		}
		touched = append(touched, t)
		return len(touched) - 1
	}
	for _, r := range rm {
		if pos, ok := inc.rankPos[r]; ok {
			if c := &inc.rows[pos]; c.routed {
				slot(inc.stateOf(c), c)
			}
		}
	}
	for _, row := range added {
		c := inc.contribution(row)
		if !c.routed {
			continue
		}
		i := slot(inc.stateOf(&c), &c)
		touched[i].adds = append(touched[i].adds, contribRef{rank: c.rank, y: c.y})
	}

	// Re-fold every touched group; keep those that draw a mark, and note
	// the base positions the merge must skip.
	var skip []int
	fresh := touched[:0]
	for _, t := range touched {
		var base []contribRef
		if t.base != nil {
			base = t.base.contribs
			if t.base.pos >= 0 {
				skip = append(skip, t.base.pos)
			}
		}
		inc.fold(&t.mark, base, t.adds, rm)
		if t.ok {
			fresh = append(fresh, t)
		}
	}
	slices.Sort(skip)
	slices.SortFunc(fresh, func(a, b refold) int { return inc.compareMarks(&a.mark, &b.mark) })

	n := len(inc.sorted) - len(skip) + len(fresh)
	if inc.q.Limit > 0 && n > inc.q.Limit {
		n = inc.q.Limit
	}
	if n == 0 {
		return nil
	}
	pts := make([]vis.Point, 0, n)
	i, j, k := 0, 0, 0 // base position, fresh index, skip index
	for len(pts) < n {
		for k < len(skip) && skip[k] == i {
			i++
			k++
		}
		if j < len(fresh) && (i == len(inc.sorted) || inc.compareMarks(&fresh[j].mark, &inc.sorted[i].mark) < 0) {
			pts = append(pts, inc.point(&fresh[j].mark))
			j++
		} else {
			pts = append(pts, inc.point(&inc.sorted[i].mark))
			i++
		}
	}
	return pts
}

// stateOf returns the base state a routed contribution belongs to, or
// nil when the key has no base state.
func (inc *Incremental) stateOf(c *contrib) *keyState {
	if inc.q.Transform == TransformGroup {
		return inc.keys[c.key]
	}
	return inc.bins[c.bin]
}
