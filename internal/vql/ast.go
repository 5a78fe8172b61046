package vql

import (
	"fmt"
	"strconv"
	"strings"

	"visclean/internal/vis"
)

// Agg is the Y-axis aggregation function (the paper's AGG ∈ {SUM, AVG,
// COUNT}). AggNone means Y' = Y raw.
type Agg int

const (
	AggNone Agg = iota
	AggSum
	AggAvg
	AggCount
)

func (a Agg) String() string {
	switch a {
	case AggNone:
		return ""
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCount:
		return "COUNT"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Transform is how the X axis is derived from the X column.
type Transform int

const (
	TransformNone Transform = iota
	TransformGroup
	TransformBin
)

// Op is a comparison operator of the WHERE clause; the paper's grammar
// allows {=, <, <=, >=, >}.
type Op int

const (
	OpEq Op = iota
	OpLt
	OpLe
	OpGe
	OpGt
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	case OpGt:
		return ">"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is one WHERE conjunct: Column Op Literal. Exactly one of
// StrValue/NumValue applies, chosen by IsNum.
type Predicate struct {
	Column   string
	Op       Op
	StrValue string
	NumValue float64
	IsNum    bool
}

func (p Predicate) String() string {
	lit := "'" + strings.ReplaceAll(p.StrValue, "'", "''") + "'"
	if p.IsNum {
		lit = formatNumber(p.NumValue)
	}
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, lit)
}

// Axis selects the sort axis.
type Axis int

const (
	AxisNone Axis = iota
	AxisX
	AxisY
)

// Query is the parsed VQL statement.
type Query struct {
	Chart       vis.ChartType
	X           string // x-axis source column
	Y           string // y-axis source column
	Agg         Agg
	From        string
	Transform   Transform
	BinInterval float64 // valid when Transform == TransformBin
	Where       []Predicate
	Sort        Axis
	SortDesc    bool
	Limit       int // 0 means no limit
}

// String renders the query back to concrete syntax; Parse(q.String()) is
// the identity on the AST (verified by a round-trip property test).
func (q *Query) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "VISUALIZE %s SELECT %s, ", q.Chart, q.X)
	if q.Agg == AggNone {
		b.WriteString(q.Y)
	} else {
		fmt.Fprintf(&b, "%s(%s)", q.Agg, q.Y)
	}
	fmt.Fprintf(&b, " FROM %s", q.From)
	switch q.Transform {
	case TransformGroup:
		fmt.Fprintf(&b, " TRANSFORM GROUP BY %s", q.X)
	case TransformBin:
		fmt.Fprintf(&b, " TRANSFORM BIN %s BY INTERVAL %s", q.X, formatNumber(q.BinInterval))
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if q.Sort != AxisNone {
		axis := "X"
		if q.Sort == AxisY {
			axis = "Y"
		}
		dir := "ASC"
		if q.SortDesc {
			dir = "DESC"
		}
		fmt.Fprintf(&b, " SORT %s BY %s", axis, dir)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// formatNumber renders a literal as the lexer reads numbers: plain
// decimal digits, never an exponent, in the fewest digits that parse
// back to the same float.
func formatNumber(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
