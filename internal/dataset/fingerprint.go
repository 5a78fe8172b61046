package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
)

// Fingerprint returns a hex SHA-256 content hash of the table: schema
// (names and kinds), tuple ids, and every cell value in column-major
// order. The hash covers decoded values, never dictionary codes, so two
// tables with the same logical content fingerprint identically no matter
// how their interners assigned codes or what clone/overlay history
// produced them. It is the cache key of the cross-session artifact cache
// (DESIGN.md §12): equal fingerprints mean every deterministic function
// of the table — token indexes, standardizers, match candidates, trained
// forests — is equal too, so sessions over the same data can share them.
func (t *Table) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	writeUint := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	// Length-prefix every string so (ab, c) and (a, bc) cannot collide.
	writeStr := func(s string) {
		writeUint(uint64(len(s)))
		io.WriteString(h, s)
	}

	writeUint(uint64(len(t.schema)))
	for _, col := range t.schema {
		writeStr(col.Name)
		writeUint(uint64(col.Kind))
	}
	writeUint(uint64(t.rows))
	for id := 0; id < t.rows; id++ {
		writeUint(uint64(id))
	}
	for _, col := range t.cols {
		switch c := col.(type) {
		case *floatCol:
			for i, v := range c.vals {
				if c.nulls.get(i) {
					h.Write([]byte{0})
				} else {
					h.Write([]byte{1})
					writeUint(math.Float64bits(v))
				}
			}
		case *stringCol:
			for i := range c.codes {
				if s, ok := c.text(i); ok {
					h.Write([]byte{1})
					writeStr(s)
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
