package stringsim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refSelfJoin is the all-pairs join SelfJoin must equal: every pair
// i < j of values that both have tokens and whose JaccardSets passes
// SelfJoin's threshold rule (a threshold below 0 acts as 0, and at or
// above 1 only identical token sets join), sorted by descending Sim,
// then I, then J.
func refSelfJoin(vals []string, threshold float64) []Pair {
	joins := func(sim float64) bool {
		switch {
		case threshold < 0:
			return sim > 0
		case threshold >= 1:
			return sim == 1
		}
		return sim > threshold
	}
	sets := make([]map[string]struct{}, len(vals))
	for i, v := range vals {
		sets[i] = TokenSet(v)
	}
	var out []Pair
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if len(sets[i]) == 0 || len(sets[j]) == 0 {
				continue
			}
			if sim := JaccardSets(sets[i], sets[j]); joins(sim) {
				out = append(out, Pair{I: i, J: j, Sim: sim})
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Sim != out[y].Sim {
			return out[x].Sim > out[y].Sim
		}
		if out[x].I != out[y].I {
			return out[x].I < out[y].I
		}
		return out[x].J < out[y].J
	})
	return out
}

// checkSelfJoin holds SelfJoin to refSelfJoin: the same pairs in the
// same order, Sim compared by its bits.
func checkSelfJoin(t *testing.T, vals []string, threshold float64) {
	t.Helper()
	got, want := SelfJoin(vals, threshold), refSelfJoin(vals, threshold)
	if len(got) != len(want) {
		t.Fatalf("SelfJoin(%q, %v) found %d pairs, reference %d:\n%v\n%v", vals, threshold, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].I != want[i].I || got[i].J != want[i].J || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
			t.Fatalf("SelfJoin(%q, %v)[%d] = %+v, reference %+v", vals, threshold, i, got[i], want[i])
		}
	}
}

func TestJoinFindsVenueSynonyms(t *testing.T) {
	vals := []string{"SIGMOD", "VLDB", "ICDE 2013", "SIGMOD Conf.", "Very Large Data Bases", "ICDE"}
	found := map[[2]int]bool{}
	for _, p := range SelfJoin(vals, 0.3) {
		found[[2]int{p.I, p.J}] = true
	}
	if !found[[2]int{0, 3}] {
		t.Error("SIGMOD ~ SIGMOD Conf. not found")
	}
	if !found[[2]int{2, 5}] {
		t.Error("ICDE 2013 ~ ICDE not found")
	}
	if found[[2]int{1, 4}] {
		t.Error("VLDB should not match Very Large Data Bases at token level")
	}
}

func TestJoinSortedByDescSim(t *testing.T) {
	pairs := SelfJoin([]string{"a b c", "a b", "a", "a b c"}, 0.1)
	if len(pairs) != 6 || !sort.SliceIsSorted(pairs, func(i, j int) bool {
		if pairs[i].Sim != pairs[j].Sim {
			return pairs[i].Sim > pairs[j].Sim
		}
		if pairs[i].I != pairs[j].I {
			return pairs[i].I < pairs[j].I
		}
		return pairs[i].J < pairs[j].J
	}) {
		t.Fatalf("pairs not all found and sorted: %v", pairs)
	}
}

func TestSelfJoinNoSelfOrMirrorPairs(t *testing.T) {
	vals := []string{"SIGMOD", "SIGMOD Conf.", "ACM SIGMOD", "VLDB"}
	pairs := SelfJoin(vals, 0.2)
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p.I >= p.J {
			t.Fatalf("self-join emitted non-canonical pair %v", p)
		}
		if seen[[2]int{p.I, p.J}] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[[2]int{p.I, p.J}] = true
	}
	if len(pairs) == 0 {
		t.Fatal("expected at least one synonym pair")
	}
}

func TestJoinNegativeThresholdClamped(t *testing.T) {
	// Behaves as threshold 0: a shared token joins, none does not.
	if pairs := SelfJoin([]string{"a", "a", "b"}, -1); len(pairs) != 1 || pairs[0] != (Pair{I: 0, J: 1, Sim: 1}) {
		t.Fatalf("pairs = %v, want only the two equal values", pairs)
	}
}

func TestJoinThresholdOneClamped(t *testing.T) {
	// threshold >= 1 clamps to just below 1: identical token sets
	// (sim == 1) still join, anything less does not.
	pairs := SelfJoin([]string{"sigmod conf", "sigmod", "conf sigmod", "vldb"}, 1)
	if len(pairs) != 1 || pairs[0] != (Pair{I: 0, J: 2, Sim: 1}) {
		t.Fatalf("pairs = %v, want exactly the identical-token-set pair", pairs)
	}
	if pairs := SelfJoin([]string{"a", "a"}, 2); len(pairs) != 1 {
		t.Fatalf("threshold 2 should clamp like 1, got %v", pairs)
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	if p := SelfJoin(nil, 0.5); len(p) != 0 {
		t.Fatalf("no values should yield no pairs, got %v", p)
	}
	// Two empty token sets have Jaccard 1, but a value with no tokens
	// has no prefix to index or probe, so it joins nothing.
	if p := SelfJoin([]string{"", " ; ", "x"}, 0.5); len(p) != 0 {
		t.Fatalf("values without tokens joined: %v", p)
	}
}

// TestJoinMatchesBruteForce: the prefix-filtered self-join equals the
// all-pairs reference on random value lists over a small vocabulary,
// where token frequencies tie often.
func TestJoinMatchesBruteForce(t *testing.T) {
	words := []string{"sigmod", "vldb", "icde", "conf", "acm", "ieee", "proc", "13", "2013", "intl"}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		vals := make([]string, 1+rng.Intn(25))
		for i := range vals {
			toks := make([]string, rng.Intn(5))
			for k := range toks {
				toks[k] = words[rng.Intn(len(words))]
			}
			vals[i] = strings.Join(toks, " ")
		}
		checkSelfJoin(t, vals, []float64{-0.5, 0, 0.2, 0.5, 0.8, 1, 1.5}[rng.Intn(7)])
	}
}

// FuzzSelfJoin holds SelfJoin to the all-pairs JaccardSets reference on
// fuzzed value lists (one value per line of spec, at most 32, so empty,
// repeated, punctuation-only and invalid UTF-8 values occur) and
// thresholds below 0, at 0, between 0 and 1, and at or above 1: the
// same pairs in the same order, Sim compared by its bits.
func FuzzSelfJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, threshold float64) {
		vals := strings.Split(spec, "\n")
		if len(vals) > 32 {
			vals = vals[:32]
		}
		checkSelfJoin(t, vals, threshold)
	})
}
