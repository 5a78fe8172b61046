package dataset

import "sync/atomic"

// interner is a per-column string dictionary: codes are assigned in
// first-seen order, so identical insertion sequences yield identical
// code assignments (the determinism suites depend on value bytes only,
// but stable codes keep debugging sane). Clones share the dictionary
// read-only; the first write that needs a new code copies it first
// (copy-on-write), so a table never mutates a dictionary another table
// can observe.
type interner struct {
	strs []string          // code → string
	idx  map[string]uint32 // string → code
	// frozen marks a dictionary shared by a clone: it is read-only from
	// then on, and its holders copy it before adding a code.
	frozen atomic.Bool
}

func newInterner() *interner {
	return &interner{idx: make(map[string]uint32)}
}

// lookup returns the code for s when already interned.
func (in *interner) lookup(s string) (uint32, bool) {
	c, ok := in.idx[s]
	return c, ok
}

// intern returns the code for s, assigning the next code when unseen.
func (in *interner) intern(s string) uint32 {
	if c, ok := in.idx[s]; ok {
		return c
	}
	c := uint32(len(in.strs))
	in.strs = append(in.strs, s)
	in.idx[s] = c
	return c
}

// clone deep-copies the dictionary (the copy-on-write slow path).
func (in *interner) clone() *interner {
	out := &interner{
		strs: make([]string, len(in.strs)),
		idx:  make(map[string]uint32, len(in.idx)),
	}
	copy(out.strs, in.strs)
	for s, c := range in.idx {
		out.idx[s] = c
	}
	return out
}
