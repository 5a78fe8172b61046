package dataset

// column is the typed storage behind one attribute. Implementations hold
// flat arrays plus a null bitmap; Table enforces kind checks before
// calling set/appendVal, so columns trust their inputs.
type column interface {
	get(i int) Value
	isNull(i int) bool
	set(i int, v Value)
	appendVal(v Value)
	clone() column
}

// floatCol stores a Float column as a flat []float64 plus null bitmap.
type floatCol struct {
	vals  []float64
	nulls bitmap
}

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

func (c *floatCol) clone() column {
	vals := make([]float64, len(c.vals))
	copy(vals, c.vals)
	return &floatCol{vals: vals, nulls: c.nulls.clone()}
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

func newColumn(k Kind) column {
	if k == Float {
		return &floatCol{}
	}
	return newStringCol()
}
