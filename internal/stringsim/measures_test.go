package stringsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SIGMOD Conf.", []string{"sigmod", "conf"}},
		{"SIGMOD'13", []string{"sigmod", "13"}},
		{"Very Large Data Bases", []string{"very", "large", "data", "bases"}},
		{"", nil},
		{"---", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"SIGMOD", "sigmod", 1},
		{"SIGMOD Conf.", "SIGMOD", 0.5},
		{"VLDB", "Very Large Data Bases", 0},
		{"", "", 1},
		{"a b", "b c", 1.0 / 3.0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); !almostEq(got, c.want) {
			t.Errorf("Jaccard(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	// Classic reference values.
	if got := Jaro("MARTHA", "MARHTA"); !almostEq(got, 0.9444444444444445) {
		t.Errorf("Jaro(MARTHA,MARHTA) = %v", got)
	}
	if got := JaroWinkler("MARTHA", "MARHTA"); !almostEq(got, 0.9611111111111111) {
		t.Errorf("JaroWinkler(MARTHA,MARHTA) = %v", got)
	}
	if Jaro("", "") != 1 || Jaro("a", "") != 0 {
		t.Error("Jaro edge cases")
	}
	if got := JaroWinkler("SIGMOD", "SIGMOD"); got != 1 {
		t.Errorf("identical JaroWinkler = %v", got)
	}
}

// Properties shared by every similarity: symmetry, range [0,1], and
// self-similarity 1.
func TestQuickSimilarityAxioms(t *testing.T) {
	sims := map[string]func(a, b string) float64{
		"Jaccard":     Jaccard,
		"JaroWinkler": JaroWinkler,
	}
	words := []string{"sigmod", "vldb", "icde", "conf", "very", "large", "data", "bases", "13", "2013"}
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(4)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return s
	}
	for name, sim := range sims {
		for trial := 0; trial < 200; trial++ {
			a, b := randStr(), randStr()
			sab, sba := sim(a, b), sim(b, a)
			if !almostEq(sab, sba) {
				t.Fatalf("%s not symmetric on (%q,%q): %v vs %v", name, a, b, sab, sba)
			}
			if sab < 0 || sab > 1+1e-9 {
				t.Fatalf("%s out of range on (%q,%q): %v", name, a, b, sab)
			}
			if s := sim(a, a); !almostEq(s, 1) {
				t.Fatalf("%s self-similarity on %q = %v", name, a, s)
			}
		}
	}
}
