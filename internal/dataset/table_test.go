package dataset

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func pubsSchema() Schema {
	return Schema{
		{Name: "Title", Kind: String},
		{Name: "Venue", Kind: String},
		{Name: "Citations", Kind: Float},
	}
}

func samplePubs(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable(pubsSchema())
	rows := [][]Value{
		{Str("NADEEF"), Str("ACM SIGMOD"), Num(174)},
		{Str("NADEEF"), Str("SIGMOD Conf."), Num(1740)},
		{Str("NADEEF"), Str("SIGMOD"), Num(174)},
		{Str("SeeDB"), Str("VLDB"), Null(Float)},
		{Str("SeeDB"), Str("Very Large Data Bases"), Num(55)},
	}
	for _, r := range rows {
		tbl.MustAppend(r)
	}
	return tbl
}

func TestValueBasics(t *testing.T) {
	if !Num(math.NaN()).IsNull() {
		t.Fatal("NaN should normalize to null")
	}
	if got := Num(174).String(); got != "174" {
		t.Fatalf("Num(174).String() = %q", got)
	}
	if got := Str("VLDB").String(); got != "VLDB" {
		t.Fatalf("Str String = %q", got)
	}
	if Null(Float).String() != "" {
		t.Fatal("null should render empty")
	}
	if !Null(Float).Equal(Null(Float)) {
		t.Fatal("nulls of same kind should be equal")
	}
	if Null(Float).Equal(Null(String)) {
		t.Fatal("nulls of different kinds should differ")
	}
	if Str("a").Equal(Num(1)) {
		t.Fatal("kind mismatch should not be equal")
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
		null bool
	}{
		{"", Float, true},
		{"N.A.", Float, true},
		{"na", Float, true},
		{"null", String, true},
		{"174.0", Float, false},
		{"VLDB", String, false},
	}
	for _, c := range cases {
		v, err := ParseValue(c.in, c.kind)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", c.in, err)
		}
		if v.IsNull() != c.null {
			t.Errorf("ParseValue(%q).IsNull() = %v, want %v", c.in, v.IsNull(), c.null)
		}
	}
	if _, err := ParseValue("abc", Float); err == nil {
		t.Fatal("expected error parsing non-numeric float field")
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := pubsSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	dup := Schema{{Name: "A", Kind: String}, {Name: "A", Kind: Float}}
	if err := dup.Validate(); err == nil {
		t.Fatal("expected duplicate-column error")
	}
	empty := Schema{{Name: "", Kind: String}}
	if err := empty.Validate(); err == nil {
		t.Fatal("expected empty-name error")
	}
}

func TestAppendValidation(t *testing.T) {
	tbl := NewTable(pubsSchema())
	if _, err := tbl.Append([]Value{Str("x")}); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := tbl.Append([]Value{Str("x"), Num(1), Num(1)}); err == nil {
		t.Fatal("expected kind error")
	}
}

// TestTupleIDsStable pins what a TupleID is: the row position Append
// handed out, the same on every clone of the table.
func TestTupleIDsStable(t *testing.T) {
	tbl := NewTable(pubsSchema())
	for i := 0; i < 5; i++ {
		if id := tbl.MustAppend([]Value{Str("t"), Str("v"), Num(float64(i))}); id != TupleID(i) {
			t.Fatalf("append %d returned id %d", i, id)
		}
	}
	cp := tbl.Clone()
	for i := 0; i < tbl.NumRows(); i++ {
		if tbl.ID(i) != TupleID(i) || cp.ID(i) != TupleID(i) {
			t.Fatalf("row %d: id %d, clone id %d", i, tbl.ID(i), cp.ID(i))
		}
		if r, ok := cp.RowIndex(tbl.ID(i)); !ok || r != i {
			t.Fatalf("clone resolves id %d to row %d (ok=%v)", tbl.ID(i), r, ok)
		}
	}
}

func TestSetAndGetByID(t *testing.T) {
	tbl := samplePubs(t)
	id := tbl.ID(3) // SeeDB with null citations
	if err := tbl.SetByID(id, 2, Num(55)); err != nil {
		t.Fatal(err)
	}
	v, ok := tbl.GetByID(id, 2)
	if !ok {
		t.Fatal("id vanished")
	}
	if f, _ := v.Float(); f != 55 {
		t.Fatalf("got %v, want 55", v)
	}
	if err := tbl.SetByID(id, 2, Str("bad")); err == nil {
		t.Fatal("expected kind error on Set")
	}
	// An id is valid only inside [0, NumRows()): RowIndex's bounds check
	// is all that stands between a bad id and the column arrays.
	for _, bad := range []TupleID{-1, TupleID(tbl.NumRows()), 9999} {
		if err := tbl.SetByID(bad, 2, Num(1)); err == nil {
			t.Fatalf("SetByID(%d): expected missing-id error", bad)
		}
		if _, ok := tbl.GetByID(bad, 2); ok {
			t.Fatalf("GetByID(%d) resolved", bad)
		}
		if _, ok := tbl.RowIndex(bad); ok {
			t.Fatalf("RowIndex(%d) resolved", bad)
		}
		if _, ok := tbl.RowByID(bad); ok {
			t.Fatalf("RowByID(%d) resolved", bad)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	tbl := samplePubs(t)
	cp := tbl.Clone()
	if err := cp.Set(0, 2, Num(999)); err != nil {
		t.Fatal(err)
	}
	if f, _ := tbl.Get(0, 2).Float(); f != 174 {
		t.Fatal("clone mutation leaked into original")
	}
	id, err := cp.Append([]Value{Str("new"), Str("X"), Num(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.RowIndex(id); ok {
		t.Fatal("clone id allocation leaked")
	}
	// A row appended to the source after cloning must not resolve on
	// a clone taken before it.
	cp = tbl.Clone()
	id = tbl.MustAppend([]Value{Str("later"), Str("Y"), Num(2)})
	if _, ok := cp.RowIndex(id); ok {
		t.Fatal("source append leaked into an earlier clone")
	}
	if _, ok := cp.GetByID(id, 0); ok {
		t.Fatal("source append readable through an earlier clone")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := samplePubs(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), pubsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", back.NumRows(), tbl.NumRows())
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for c := 0; c < tbl.NumCols(); c++ {
			if !back.Get(i, c).Equal(tbl.Get(i, c)) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, c, back.Get(i, c), tbl.Get(i, c))
			}
		}
	}
}

func TestCSVInferSchema(t *testing.T) {
	in := "Name,Score,Note\nalice,3.5,ok\nbob,,bad\n,7,"
	tbl, err := ReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Schema{
		{Name: "Name", Kind: String},
		{Name: "Score", Kind: Float},
		{Name: "Note", Kind: String},
	}
	if !reflect.DeepEqual(tbl.Schema(), want) {
		t.Fatalf("inferred schema = %v, want %v", tbl.Schema(), want)
	}
	if !tbl.Get(1, 1).IsNull() {
		t.Fatal("empty numeric field should be null")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), nil); err == nil {
		t.Fatal("expected empty-csv error")
	}
	if _, err := ReadCSV(strings.NewReader("A,B\n1"), nil); err == nil {
		t.Fatal("expected ragged-record error")
	}
	if _, err := ReadCSV(strings.NewReader("A\nx"), Schema{{Name: "B", Kind: String}}); err == nil {
		t.Fatal("expected header/schema mismatch error")
	}
}

func TestDistinctStringsAndColumnHelpers(t *testing.T) {
	tbl := samplePubs(t)
	d := tbl.DistinctStrings(0)
	if d["NADEEF"] != 3 || d["SeeDB"] != 2 {
		t.Fatalf("distinct titles = %v", d)
	}
	vals, ids := tbl.NumericColumn(2)
	if len(vals) != 4 || len(ids) != 4 {
		t.Fatalf("numeric column sizes = %d/%d", len(vals), len(ids))
	}
	miss := tbl.MissingIDs(2)
	if len(miss) != 1 || miss[0] != tbl.ID(3) {
		t.Fatalf("missing ids = %v", miss)
	}
}

// Property: CSV round-trip preserves arbitrary float values (including
// negatives and very small magnitudes) and arbitrary printable strings.
func TestQuickCSVRoundTripFloats(t *testing.T) {
	f := func(vals []float64) bool {
		tbl := NewTable(Schema{{Name: "V", Kind: Float}})
		for _, v := range vals {
			if math.IsInf(v, 0) {
				v = 0
			}
			tbl.MustAppend([]Value{Num(v)})
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), tbl.Schema())
		if err != nil {
			return false
		}
		if back.NumRows() != tbl.NumRows() {
			return false
		}
		for i := 0; i < tbl.NumRows(); i++ {
			if !back.Get(i, 0).Equal(tbl.Get(i, 0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
