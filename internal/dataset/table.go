package dataset

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns with unique names.
type Schema []Column

// Index returns the position of the named column, or -1. This is a
// linear scan; Table.ColumnIndex answers the same question through a
// map built once per table and should be preferred on hot paths.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks that column names are non-empty and unique.
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if c.Name == "" {
			return fmt.Errorf("dataset: schema has empty column name")
		}
		if seen[c.Name] {
			return fmt.Errorf("dataset: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// TupleID identifies a tuple: it is the tuple's row position in its
// Table, assigned at insertion. A table only grows, so an id never
// moves, and a clone keeps every id of its source, so the ERG, the
// oracle's ground truth and the cleaning models can all refer to the
// same tuple.
type TupleID int

// Table is an in-memory relation stored column-wise: a Float column is a
// flat []float64 plus null bitmap, a String column is []uint32 codes
// into a per-column dictionary shared read-only by clones (see
// column.go). Rows are only ever appended, so a tuple id resolves to
// its row by a bounds check alone. Table is not safe for concurrent
// mutation; the pipeline clones tables (or layers an Overlay) before
// hypothetical repairs.
type Table struct {
	schema Schema
	colIdx map[string]int // memoized Schema.Index
	cols   []column
	rows   int
}

// NewTable creates an empty table. It panics on an invalid schema, which
// always indicates a programming error rather than bad input data.
func NewTable(schema Schema) *Table {
	if err := schema.Validate(); err != nil {
		panic(err)
	}
	t := &Table{schema: schema.Clone(), colIdx: make(map[string]int, len(schema)), cols: make([]column, len(schema))}
	for i, c := range t.schema {
		t.colIdx[c.Name] = i
		t.cols[i] = newColumn(c.Kind)
	}
	return t
}

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.schema) }

// ColumnIndex returns the position of the named column, or -1. Unlike
// Schema.Index this is a single map lookup.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Append adds a tuple and returns its new TupleID. The row is copied
// into the column arrays.
func (t *Table) Append(row []Value) (TupleID, error) {
	if len(row) != len(t.schema) {
		return 0, fmt.Errorf("dataset: row has %d cells, schema has %d columns", len(row), len(t.schema))
	}
	for i, v := range row {
		if v.Kind() != t.schema[i].Kind {
			return 0, fmt.Errorf("dataset: column %q expects %v, got %v", t.schema[i].Name, t.schema[i].Kind, v.Kind())
		}
	}
	for i, v := range row {
		t.cols[i].appendVal(v)
	}
	t.rows++
	return TupleID(t.rows - 1), nil
}

// MustAppend is Append for statically known-good rows (tests, generators).
func (t *Table) MustAppend(row []Value) TupleID {
	id, err := t.Append(row)
	if err != nil {
		panic(err)
	}
	return id
}

// ID returns the tuple id of the i-th row.
func (t *Table) ID(i int) TupleID { return TupleID(i) }

// RowIndex returns the row position of a tuple id, reporting whether a
// tuple has it. This bounds check is all that stands between a bad id
// and the column arrays.
func (t *Table) RowIndex(id TupleID) (int, bool) {
	return int(id), id >= 0 && int(id) < t.rows
}

// Row materializes the i-th row as a fresh []Value. Callers must not
// assume writes to the returned slice reach the table; use Set for
// updates so derived state stays consistent.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c, col := range t.cols {
		out[c] = col.get(i)
	}
	return out
}

// RowByID returns the row for a tuple id. See Row.
func (t *Table) RowByID(id TupleID) ([]Value, bool) {
	i, ok := t.RowIndex(id)
	if !ok {
		return nil, false
	}
	return t.Row(i), true
}

// Get returns the cell at row i, column c.
func (t *Table) Get(i, c int) Value { return t.cols[c].get(i) }

// GetByID returns the cell for a tuple id and column index.
func (t *Table) GetByID(id TupleID, c int) (Value, bool) {
	i, ok := t.RowIndex(id)
	if !ok {
		return Value{}, false
	}
	return t.cols[c].get(i), true
}

// Set replaces the cell at row i, column c, enforcing the column kind.
func (t *Table) Set(i, c int, v Value) error {
	if v.Kind() != t.schema[c].Kind {
		return fmt.Errorf("dataset: column %q expects %v, got %v", t.schema[c].Name, t.schema[c].Kind, v.Kind())
	}
	t.cols[c].set(i, v)
	return nil
}

// SetByID replaces a cell addressed by tuple id.
func (t *Table) SetByID(id TupleID, c int, v Value) error {
	i, ok := t.RowIndex(id)
	if !ok {
		return fmt.Errorf("dataset: no tuple with id %d", id)
	}
	return t.Set(i, c, v)
}

// Clone returns a deep copy sharing no mutable state with the receiver:
// column arrays are copied, string dictionaries are shared
// copy-on-write (frozen until either side needs a new code). Tuple ids
// are row positions, so a clone can be repaired hypothetically and
// compared against the original tuple-by-tuple. For hypothetical repairs
// that touch few cells, Overlay is O(touched) instead of O(table).
func (t *Table) Clone() *Table {
	cp := &Table{
		schema: t.schema.Clone(),
		colIdx: make(map[string]int, len(t.colIdx)),
		cols:   make([]column, len(t.cols)),
		rows:   t.rows,
	}
	for name, i := range t.colIdx {
		cp.colIdx[name] = i
	}
	for i, col := range t.cols {
		cp.cols[i] = col.clone()
	}
	return cp
}

// String renders a small table for debugging and examples.
func (t *Table) String() string {
	var b strings.Builder
	for i, c := range t.schema {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	for i := 0; i < t.rows; i++ {
		for c := range t.schema {
			if c > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(t.cols[c].get(i).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
