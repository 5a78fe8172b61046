package dataset

import "fmt"

// Overlay is a copy-on-write view over a base Table: per-column sparse
// cell patches. Creating one is O(columns) and every edit is O(1), so
// hypothetical repairs cost O(touched cells) instead of the O(table) a
// deep Clone pays. The base table must not be mutated while overlays
// over it are alive; the overlay itself is safe for concurrent reads
// after the last Set (the same freeze-then-fan-out discipline the
// pipeline already applies to clusters and standardizers).
type Overlay struct {
	base    *Table
	patches []map[TupleID]Value // per column, lazily allocated
}

// Overlay returns an empty copy-on-write view over the table.
func (t *Table) Overlay() *Overlay {
	return &Overlay{base: t, patches: make([]map[TupleID]Value, len(t.cols))}
}

// Set patches one cell, addressed by tuple id, enforcing the column
// kind. The base table is never written.
func (o *Overlay) Set(id TupleID, c int, v Value) error {
	if v.Kind() != o.base.schema[c].Kind {
		return fmt.Errorf("dataset: column %q expects %v, got %v", o.base.schema[c].Name, o.base.schema[c].Kind, v.Kind())
	}
	if _, ok := o.base.RowIndex(id); !ok {
		return fmt.Errorf("dataset: no tuple with id %d", id)
	}
	if o.patches[c] == nil {
		o.patches[c] = make(map[TupleID]Value)
	}
	o.patches[c][id] = v
	return nil
}

// Patch returns the patched value for a cell, if any. It does not
// consult the base table — this is the hook view building uses to layer
// hypothetical repairs over the session table without copying it.
func (o *Overlay) Patch(id TupleID, c int) (Value, bool) {
	m := o.patches[c]
	if m == nil {
		return Value{}, false
	}
	v, ok := m[id]
	return v, ok
}
