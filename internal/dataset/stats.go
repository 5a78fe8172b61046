package dataset

// DistinctStrings returns the distinct non-null string values of column c
// with their frequencies. The attribute-duplicate detector iterates over
// this instead of raw rows. On the columnar store this is one pass over
// the code array plus one map insert per distinct value (not per row).
func (t *Table) DistinctStrings(c int) map[string]int {
	out := make(map[string]int)
	col, ok := t.cols[c].(*stringCol)
	if !ok {
		return out
	}
	counts := make([]int, len(col.dict.strs))
	hasNulls := col.nulls.anySet(len(col.codes))
	for i, code := range col.codes {
		if hasNulls && col.nulls.get(i) {
			continue
		}
		counts[code]++
	}
	for code, n := range counts {
		if n > 0 {
			out[col.dict.strs[code]] = n
		}
	}
	return out
}

// NumericColumn extracts the non-null values of a Float column together
// with their tuple ids, in row order.
func (t *Table) NumericColumn(c int) (vals []float64, ids []TupleID) {
	col, ok := t.cols[c].(*floatCol)
	if !ok {
		return nil, nil
	}
	if !col.nulls.anySet(len(col.vals)) {
		vals = make([]float64, len(col.vals))
		copy(vals, col.vals)
		ids = make([]TupleID, len(col.vals))
		for i := range ids {
			ids[i] = TupleID(i)
		}
		return vals, ids
	}
	for i, f := range col.vals {
		if col.nulls.get(i) {
			continue
		}
		vals = append(vals, f)
		ids = append(ids, TupleID(i))
	}
	return vals, ids
}

// MissingIDs returns the tuple ids whose cell in column c is null.
func (t *Table) MissingIDs(c int) []TupleID {
	var out []TupleID
	col := t.cols[c]
	for i := 0; i < t.rows; i++ {
		if col.isNull(i) {
			out = append(out, TupleID(i))
		}
	}
	return out
}
