package dataset

import (
	"fmt"
	"sync"
	"testing"
)

// TestCloneDictionaryCopyOnWrite pins the interning contract: clones
// share the string dictionary read-only, and the first write that needs
// a new code copies it, so neither side ever observes the other's
// dictionary growth.
func TestCloneDictionaryCopyOnWrite(t *testing.T) {
	tbl := samplePubs(t)
	cp := tbl.Clone()

	// Writing an existing value into the clone needs no new code and
	// must not disturb the original.
	if err := cp.Set(0, 1, Str("VLDB")); err != nil {
		t.Fatal(err)
	}
	if s, _ := tbl.Get(0, 1).Text(); s != "ACM SIGMOD" {
		t.Fatalf("original venue = %q after clone write", s)
	}

	// Writing a brand-new string into the clone triggers the dictionary
	// copy; the original still resolves all its codes correctly.
	if err := cp.Set(1, 1, Str("EDBT")); err != nil {
		t.Fatal(err)
	}
	if s, _ := cp.Get(1, 1).Text(); s != "EDBT" {
		t.Fatalf("clone venue = %q, want EDBT", s)
	}
	if s, _ := tbl.Get(1, 1).Text(); s != "SIGMOD Conf." {
		t.Fatalf("original venue = %q after clone dictionary copy", s)
	}

	// And symmetrically: new strings in the original don't leak into
	// the clone.
	if err := tbl.Set(2, 1, Str("CIDR")); err != nil {
		t.Fatal(err)
	}
	if s, _ := cp.Get(2, 1).Text(); s != "SIGMOD" {
		t.Fatalf("clone venue = %q after original write", s)
	}
}

// TestConcurrentClonesCopyOnWrite clones one table from several
// goroutines at once, each interning new strings into its own clone.
// Cloning only reads the source, so under -race any write to shared
// state shows, and the source must come out unchanged.
func TestConcurrentClonesCopyOnWrite(t *testing.T) {
	tbl := samplePubs(t)
	want := tbl.String()
	const clones = 8
	var wg sync.WaitGroup
	for w := 0; w < clones; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cp := tbl.Clone()
			for i := 0; i < cp.NumRows(); i++ {
				v := fmt.Sprintf("venue %d/%d", w, i)
				if err := cp.Set(i, 1, Str(v)); err != nil {
					t.Error(err)
					return
				}
				if s, _ := cp.Get(i, 1).Text(); s != v {
					t.Errorf("clone %d row %d venue = %q, want %q", w, i, s, v)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tbl.String(); got != want {
		t.Fatalf("source changed under concurrent clones:\n%s\nwant\n%s", got, want)
	}
	// The source still interns on its own after the clones froze its
	// dictionary.
	if err := tbl.Set(0, 1, Str("CIDR")); err != nil {
		t.Fatal(err)
	}
	if s, _ := tbl.Get(0, 1).Text(); s != "CIDR" {
		t.Fatalf("source venue = %q after write, want CIDR", s)
	}
}

func TestColumnIndexMemoized(t *testing.T) {
	tbl := samplePubs(t)
	if got := tbl.ColumnIndex("Citations"); got != 2 {
		t.Fatalf("ColumnIndex(Citations) = %d", got)
	}
	if got := tbl.ColumnIndex("Nope"); got != -1 {
		t.Fatalf("ColumnIndex(Nope) = %d", got)
	}
	// Table.ColumnIndex must agree with Schema.Index on every column.
	for _, c := range tbl.Schema() {
		if tbl.ColumnIndex(c.Name) != tbl.Schema().Index(c.Name) {
			t.Fatalf("ColumnIndex disagrees with Schema.Index on %q", c.Name)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tbl.ColumnIndex("Citations") != 2 {
			t.Fatal("wrong index")
		}
	})
	if allocs != 0 {
		t.Fatalf("ColumnIndex allocates %v per call, want 0", allocs)
	}
}

// TestIsNullSpellingNoAllocs is the satellite's allocation assertion:
// parsing CSV fields must not allocate for the null-spelling check
// (the old strings.ToUpper copied every field).
func TestIsNullSpellingNoAllocs(t *testing.T) {
	fields := []string{"", "N.A.", "na", "n/a", "NULL", "NaN", "none", "VLDB", "ordinary text", "174.5"}
	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range fields {
			isNullSpelling(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("isNullSpelling allocates %v per run, want 0", allocs)
	}
	// Semantics unchanged from the ToUpper switch.
	for _, f := range []string{"", "N.A.", "n.a.", "NA", "na", "N/A", "null", "NULL", "nan", "NONE", "None"} {
		if !isNullSpelling(f) {
			t.Fatalf("isNullSpelling(%q) = false, want true", f)
		}
	}
	for _, f := range []string{"0", "N.A", "NAAN", "nul", "none ", " "} {
		if isNullSpelling(f) {
			t.Fatalf("isNullSpelling(%q) = true, want false", f)
		}
	}
}

// TestGetNoAllocs pins the columnar promise that cell reads build the
// Value on the stack: scanning a table through Get must not allocate.
func TestGetNoAllocs(t *testing.T) {
	tbl := samplePubs(t)
	sum := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < tbl.NumRows(); i++ {
			for c := 0; c < tbl.NumCols(); c++ {
				if f, ok := tbl.Get(i, c).Float(); ok {
					sum += f
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Get scan allocates %v per run, want 0", allocs)
	}
	_ = sum
}
