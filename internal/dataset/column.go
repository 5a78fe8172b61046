package dataset

import "strings"

// column is the typed storage behind one attribute. Implementations hold
// flat arrays plus a null bitmap; Table enforces kind checks before
// calling set/appendVal, so columns trust their inputs.
type column interface {
	kind() Kind
	get(i int) Value
	isNull(i int) bool
	set(i int, v Value)
	appendVal(v Value)
	// cmp orders two cells with Value.Compare semantics: nulls first,
	// then by value.
	cmp(a, b int) int
	clone() column
	// permute reorders cells so that new position i holds old cell
	// idx[i]. len(idx) equals the column length.
	permute(idx []int)
	// compact keeps only cells whose keep bit is true, preserving order.
	compact(keep []bool, kept int)
}

// floatCol stores a Float column as a flat []float64 plus null bitmap.
type floatCol struct {
	vals  []float64
	nulls bitmap
}

func (c *floatCol) kind() Kind { return Float }

func (c *floatCol) get(i int) Value {
	if c.nulls.get(i) {
		return Value{kind: Float, null: true}
	}
	return Value{kind: Float, num: c.vals[i]}
}

func (c *floatCol) isNull(i int) bool { return c.nulls.get(i) }

func (c *floatCol) set(i int, v Value) {
	if v.null {
		c.nulls.set(i, true)
		c.vals[i] = 0
		return
	}
	c.nulls.set(i, false)
	c.vals[i] = v.num
}

func (c *floatCol) appendVal(v Value) {
	i := len(c.vals)
	c.vals = append(c.vals, v.num) // v.num is 0 for nulls
	if v.null {
		c.nulls.set(i, true)
	}
}

func (c *floatCol) cmp(a, b int) int {
	na, nb := c.nulls.get(a), c.nulls.get(b)
	switch {
	case na && nb:
		return 0
	case na:
		return -1
	case nb:
		return 1
	}
	va, vb := c.vals[a], c.vals[b]
	switch {
	case va < vb:
		return -1
	case va > vb:
		return 1
	default:
		return 0
	}
}

func (c *floatCol) clone() column {
	vals := make([]float64, len(c.vals))
	copy(vals, c.vals)
	return &floatCol{vals: vals, nulls: c.nulls.clone()}
}

func (c *floatCol) permute(idx []int) {
	vals := make([]float64, len(c.vals))
	var nulls bitmap
	hasNulls := c.nulls.anySet(len(c.vals))
	for to, from := range idx {
		vals[to] = c.vals[from]
		if hasNulls && c.nulls.get(from) {
			nulls.set(to, true)
		}
	}
	c.vals, c.nulls = vals, nulls
}

func (c *floatCol) compact(keep []bool, kept int) {
	vals := make([]float64, 0, kept)
	var nulls bitmap
	hasNulls := c.nulls.anySet(len(c.vals))
	for i, k := range keep {
		if !k {
			continue
		}
		if hasNulls && c.nulls.get(i) {
			nulls.set(len(vals), true)
		}
		vals = append(vals, c.vals[i])
	}
	c.vals, c.nulls = vals, nulls
}

// stringCol stores a String column as []uint32 codes into an interner.
// Clones share the dictionary, which the clone freezes; codeFor copies a
// frozen dictionary before the first new-string write.
type stringCol struct {
	codes []uint32
	nulls bitmap
	dict  *interner
}

func newStringCol() *stringCol { return &stringCol{dict: newInterner()} }

func (c *stringCol) kind() Kind { return String }

func (c *stringCol) get(i int) Value {
	if c.nulls.get(i) {
		return Value{kind: String, null: true}
	}
	return Value{kind: String, str: c.dict.strs[c.codes[i]]}
}

func (c *stringCol) isNull(i int) bool { return c.nulls.get(i) }

// text returns the cell's string without constructing a Value.
func (c *stringCol) text(i int) (string, bool) {
	if c.nulls.get(i) {
		return "", false
	}
	return c.dict.strs[c.codes[i]], true
}

// codeFor interns s, copying a frozen dictionary first when s is new.
func (c *stringCol) codeFor(s string) uint32 {
	if code, ok := c.dict.lookup(s); ok {
		return code
	}
	if c.dict.frozen.Load() {
		c.dict = c.dict.clone()
	}
	return c.dict.intern(s)
}

func (c *stringCol) set(i int, v Value) {
	if v.null {
		c.nulls.set(i, true)
		c.codes[i] = 0
		return
	}
	c.nulls.set(i, false)
	c.codes[i] = c.codeFor(v.str)
}

func (c *stringCol) appendVal(v Value) {
	i := len(c.codes)
	if v.null {
		c.codes = append(c.codes, 0)
		c.nulls.set(i, true)
		return
	}
	c.codes = append(c.codes, c.codeFor(v.str))
}

func (c *stringCol) cmp(a, b int) int {
	na, nb := c.nulls.get(a), c.nulls.get(b)
	switch {
	case na && nb:
		return 0
	case na:
		return -1
	case nb:
		return 1
	}
	ca, cb := c.codes[a], c.codes[b]
	if ca == cb {
		return 0
	}
	return strings.Compare(c.dict.strs[ca], c.dict.strs[cb])
}

func (c *stringCol) clone() column {
	codes := make([]uint32, len(c.codes))
	copy(codes, c.codes)
	// Both sides now treat the dictionary as frozen; whichever table
	// first needs a new code copies it (see codeFor). The mark lives on
	// the dictionary, not the source column, and is atomic, so
	// concurrent clones of one table do not race.
	c.dict.frozen.Store(true)
	return &stringCol{codes: codes, nulls: c.nulls.clone(), dict: c.dict}
}

func (c *stringCol) permute(idx []int) {
	codes := make([]uint32, len(c.codes))
	var nulls bitmap
	hasNulls := c.nulls.anySet(len(c.codes))
	for to, from := range idx {
		codes[to] = c.codes[from]
		if hasNulls && c.nulls.get(from) {
			nulls.set(to, true)
		}
	}
	c.codes, c.nulls = codes, nulls
}

func (c *stringCol) compact(keep []bool, kept int) {
	codes := make([]uint32, 0, kept)
	var nulls bitmap
	hasNulls := c.nulls.anySet(len(c.codes))
	for i, k := range keep {
		if !k {
			continue
		}
		if hasNulls && c.nulls.get(i) {
			nulls.set(len(codes), true)
		}
		codes = append(codes, c.codes[i])
	}
	c.codes, c.nulls = codes, nulls
}

func newColumn(k Kind) column {
	if k == Float {
		return &floatCol{}
	}
	return newStringCol()
}
