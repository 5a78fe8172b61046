package vql

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// Validate checks the query against a table schema: referenced columns
// must exist, BIN requires a numeric X, aggregates other than COUNT
// require a numeric Y, and WHERE literals must match column kinds.
func (q *Query) Validate(schema dataset.Schema) error {
	xi := schema.Index(q.X)
	if xi < 0 {
		return fmt.Errorf("vql: unknown x column %q", q.X)
	}
	yi := schema.Index(q.Y)
	if yi < 0 {
		return fmt.Errorf("vql: unknown y column %q", q.Y)
	}
	if q.Transform == TransformBin && schema[xi].Kind != dataset.Float {
		return fmt.Errorf("vql: BIN requires numeric x column, %q is %v", q.X, schema[xi].Kind)
	}
	if (q.Agg == AggSum || q.Agg == AggAvg) && schema[yi].Kind != dataset.Float {
		return fmt.Errorf("vql: %s requires numeric y column, %q is %v", q.Agg, q.Y, schema[yi].Kind)
	}
	if q.Agg == AggNone && schema[yi].Kind != dataset.Float {
		return fmt.Errorf("vql: raw y column %q must be numeric", q.Y)
	}
	if q.Transform != TransformNone && q.Agg == AggNone {
		return fmt.Errorf("vql: GROUP/BIN requires an aggregate on the y axis")
	}
	for _, p := range q.Where {
		ci := schema.Index(p.Column)
		if ci < 0 {
			return fmt.Errorf("vql: unknown WHERE column %q", p.Column)
		}
		if p.IsNum && schema[ci].Kind != dataset.Float {
			return fmt.Errorf("vql: numeric literal compared with %v column %q", schema[ci].Kind, p.Column)
		}
		if !p.IsNum && schema[ci].Kind != dataset.String {
			return fmt.Errorf("vql: string literal compared with %v column %q", schema[ci].Kind, p.Column)
		}
	}
	if q.Transform == TransformBin && q.BinInterval <= 0 {
		return fmt.Errorf("vql: BIN interval must be positive")
	}
	return nil
}

// Execute runs the query over the table, producing the chart series. The
// table is not modified. Execution order follows the clause semantics:
// WHERE filter → TRANSFORM (group/bin) → aggregate → SORT → LIMIT.
//
// Null handling, which is what makes dirty data distort charts (§II-C):
// rows whose X cell is null never contribute a mark; SUM treats null Y as
// absent (the group total silently undercounts, as with t7[Citations] in
// the paper's Fig 1a); AVG and COUNT skip null Y cells; rows failing a
// WHERE predicate because a synonym does not literally match are dropped,
// reproducing the attribute-duplicate selection pathology.
func (q *Query) Execute(t *dataset.Table) (*vis.Data, error) {
	if err := q.Validate(t.Schema()); err != nil {
		return nil, err
	}
	xi := t.ColumnIndex(q.X)
	yi := t.ColumnIndex(q.Y)

	data := &vis.Data{Type: q.Chart, XField: q.X, YField: q.Y}

	rows := q.filterRows(t)
	switch q.Transform {
	case TransformNone:
		for _, i := range rows {
			xv := t.Get(i, xi)
			yv := t.Get(i, yi)
			if xv.IsNull() || yv.IsNull() {
				continue
			}
			y, _ := yv.Float()
			p := vis.Point{Label: xv.String(), Y: y}
			if f, ok := xv.Float(); ok {
				p.X, p.HasX = f, true
			}
			data.Points = append(data.Points, p)
		}
	case TransformGroup:
		groups := make(map[string]*aggState)
		var order []string
		for _, i := range rows {
			xv := t.Get(i, xi)
			key, ok := xv.Text()
			if !ok {
				// Numeric categorical grouping (e.g. GROUP BY Year).
				if xv.IsNull() {
					continue
				}
				key = xv.String()
			}
			g, exists := groups[key]
			if !exists {
				g = &aggState{}
				groups[key] = g
				order = append(order, key)
			}
			g.add(t.Get(i, yi))
		}
		for _, key := range order {
			y, ok := groups[key].result(q.Agg)
			if !ok {
				continue
			}
			data.Points = append(data.Points, vis.Point{Label: key, Y: y})
		}
	case TransformBin:
		bins := make(map[int64]*aggState)
		for _, i := range rows {
			x, ok := t.Get(i, xi).Float()
			if !ok {
				continue
			}
			b := int64(math.Floor(x / q.BinInterval))
			g, exists := bins[b]
			if !exists {
				g = &aggState{}
				bins[b] = g
			}
			g.add(t.Get(i, yi))
		}
		keys := make([]int64, 0, len(bins))
		for b := range bins {
			keys = append(keys, b)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, b := range keys {
			y, ok := bins[b].result(q.Agg)
			if !ok {
				continue
			}
			lo := float64(b) * q.BinInterval
			hi := lo + q.BinInterval
			data.Points = append(data.Points, vis.Point{
				Label: binLabel(lo, hi),
				X:     lo,
				HasX:  true,
				Y:     y,
			})
		}
	}

	q.sortPoints(data)
	if q.Limit > 0 && len(data.Points) > q.Limit {
		data.Points = data.Points[:q.Limit]
	}
	return data, nil
}

func binLabel(lo, hi float64) string {
	return "[" + strconv.FormatFloat(lo, 'g', -1, 64) + "," + strconv.FormatFloat(hi, 'g', -1, 64) + ")"
}

// filterRows returns the row indices passing every WHERE conjunct.
func (q *Query) filterRows(t *dataset.Table) []int {
	idx := make([]int, 0, t.NumRows())
	cols := make([]int, len(q.Where))
	for k, p := range q.Where {
		cols[k] = t.ColumnIndex(p.Column)
	}
rows:
	for i := 0; i < t.NumRows(); i++ {
		for k, p := range q.Where {
			if !matches(t.Get(i, cols[k]), p) {
				continue rows
			}
		}
		idx = append(idx, i)
	}
	return idx
}

func matches(v dataset.Value, p Predicate) bool {
	if v.IsNull() {
		return false
	}
	if p.IsNum {
		f, ok := v.Float()
		if !ok {
			return false
		}
		switch p.Op {
		case OpEq:
			return f == p.NumValue
		case OpLt:
			return f < p.NumValue
		case OpLe:
			return f <= p.NumValue
		case OpGe:
			return f >= p.NumValue
		case OpGt:
			return f > p.NumValue
		}
		return false
	}
	s, ok := v.Text()
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return s == p.StrValue
	case OpLt:
		return s < p.StrValue
	case OpLe:
		return s <= p.StrValue
	case OpGe:
		return s >= p.StrValue
	case OpGt:
		return s > p.StrValue
	}
	return false
}

// sortPoints applies the query's SORT clause: a stable sort under
// comparePoints, so points the comparator ties keep execution order.
func (q *Query) sortPoints(d *vis.Data) {
	if q.Sort == AxisNone {
		return
	}
	sort.SliceStable(d.Points, func(a, b int) bool { return q.comparePoints(d.Points[a], d.Points[b]) < 0 })
}

// comparePoints is the chart order of the SORT clause, shared by Execute
// and the incremental executor's merge: the sort axis in the query's
// direction, ties broken by ascending label whatever the direction. It
// returns 0 for every pair under SORT none. It is a strict weak order
// even over NaN marks, which cmpFloat places last.
func (q *Query) comparePoints(pa, pb vis.Point) int {
	if q.Sort == AxisNone {
		return 0
	}
	var c int
	switch {
	case q.Sort == AxisY:
		c = cmpFloat(pa.Y, pb.Y, q.SortDesc)
	case pa.HasX && pb.HasX:
		c = cmpFloat(pa.X, pb.X, q.SortDesc)
	default:
		c = strings.Compare(pa.Label, pb.Label)
		if q.SortDesc {
			c = -c
		}
	}
	if c == 0 {
		return strings.Compare(pa.Label, pb.Label)
	}
	return c
}

// cmpFloat orders two floats ascending, or descending when desc is set,
// with -0 equal to +0 as the < and > operators have it. NaN ties with
// NaN and sorts after every number in either direction (+Inf and -Inf
// in one SUM or AVG make a NaN mark).
func cmpFloat(a, b float64, desc bool) int {
	if aNaN, bNaN := math.IsNaN(a), math.IsNaN(b); aNaN || bNaN {
		switch {
		case aNaN == bNaN:
			return 0
		case aNaN:
			return 1
		}
		return -1
	}
	c := 0
	switch {
	case a < b:
		c = -1
	case a > b:
		c = 1
	}
	if desc {
		return -c
	}
	return c
}
