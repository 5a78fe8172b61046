package dataset

import (
	"bytes"
	"testing"
)

// FuzzCSVRoundTrip feeds ReadCSV arbitrary bytes, as a user's `-csv`
// file reaches it. ReadCSV must never panic, and every table it accepts
// must survive a save and a reload: writing the table, reading the
// output back and writing that again gives the same bytes, so
// load-then-save is a fixed point.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tbl, err := ReadCSV(bytes.NewReader(in), nil)
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := tbl.WriteCSV(&saved); err != nil {
			t.Fatalf("ReadCSV(%q) loaded, but WriteCSV failed: %v", in, err)
		}
		back, err := ReadCSV(bytes.NewReader(saved.Bytes()), nil)
		if err != nil {
			t.Fatalf("ReadCSV(%q) saves as %q, which does not load: %v", in, saved.Bytes(), err)
		}
		var again bytes.Buffer
		if err := back.WriteCSV(&again); err != nil {
			t.Fatalf("ReadCSV(%q) saves as %q, which loads, but WriteCSV failed: %v", in, saved.Bytes(), err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("ReadCSV(%q) saves as %q, which loads and saves as %q", in, saved.Bytes(), again.Bytes())
		}
	})
}
