// Package dataset provides the typed relational table substrate used by
// every other VisClean component: schemas, nullable cells, stable tuple
// identifiers, CSV round-tripping and per-column scans (distinct strings,
// numeric values, missing cells).
//
// The paper (§II) operates over a single relation D whose rows carry data
// errors (tuple/attribute duplicates, missing values, outliers). Cleaning
// never mutates D in place destructively; the pipeline works on cheap
// copies so "before" and "after" visualizations can be compared.
package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind is the type of a column.
type Kind int

const (
	// String is a categorical/textual column (e.g. Venue).
	String Kind = iota
	// Float is a numeric column (e.g. Citations). Integers are stored as
	// floats; the visualization language only needs numeric semantics.
	Float
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is one cell. The zero Value is a null string cell.
type Value struct {
	kind Kind
	str  string
	num  float64
	null bool
}

// Null returns a null cell of the given kind. Nulls model the paper's
// missing values (§II-C error type iii).
func Null(kind Kind) Value { return Value{kind: kind, null: true} }

// Str returns a non-null string cell.
func Str(s string) Value { return Value{kind: String, str: s} }

// Num returns a non-null numeric cell. NaN is treated as null so that
// arithmetic never silently propagates NaNs into aggregates.
func Num(f float64) Value {
	if math.IsNaN(f) {
		return Null(Float)
	}
	return Value{kind: Float, num: f}
}

// Kind reports the cell's column kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the cell is missing.
func (v Value) IsNull() bool { return v.null }

// Float returns the numeric value; ok is false for nulls or string cells.
func (v Value) Float() (f float64, ok bool) {
	if v.null || v.kind != Float {
		return 0, false
	}
	return v.num, true
}

// Text returns the string value; ok is false for nulls or numeric cells.
func (v Value) Text() (s string, ok bool) {
	if v.null || v.kind != String {
		return "", false
	}
	return v.str, true
}

// String renders the cell for display and CSV encoding. Nulls render as
// the empty string; floats drop a trailing ".0" only through %g.
func (v Value) String() string {
	if v.null {
		return ""
	}
	if v.kind == Float {
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	}
	return v.str
}

// Equal reports deep cell equality. Two nulls of the same kind are equal.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.null || o.null {
		return v.null == o.null
	}
	if v.kind == Float {
		return v.num == o.num
	}
	return v.str == o.str
}

// ParseValue parses a CSV field into a cell of the wanted kind. Empty
// fields and the common NA spellings become nulls, mirroring how the
// paper's Table I writes "N.A." for the missing citation count.
func ParseValue(field string, kind Kind) (Value, error) {
	trimmed := strings.TrimSpace(field)
	if isNullSpelling(trimmed) {
		return Null(kind), nil
	}
	if kind == String {
		return Str(field), nil
	}
	f, err := strconv.ParseFloat(trimmed, 64)
	if err != nil {
		return Value{}, fmt.Errorf("dataset: parse %q as float: %w", field, err)
	}
	return Num(f), nil
}

// isNullSpelling matches the accepted NA spellings case-insensitively
// without allocating (strings.ToUpper copied every CSV field; at 5M+
// tuples that alone dominated load allocations — see the assertion in
// TestIsNullSpellingNoAllocs).
func isNullSpelling(s string) bool {
	switch len(s) {
	case 0:
		return true
	case 2:
		return strings.EqualFold(s, "NA")
	case 3:
		return strings.EqualFold(s, "N/A") || strings.EqualFold(s, "NAN")
	case 4:
		return strings.EqualFold(s, "N.A.") || strings.EqualFold(s, "NULL") || strings.EqualFold(s, "NONE")
	}
	return false
}
