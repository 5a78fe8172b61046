package stringsim

import (
	"math"
	"strings"
	"testing"
)

// jaroRef and jaroWinklerRef compute Jaro and Jaro-Winkler directly on
// strings, lowering and converting to runes inside each measure, with no
// prepared forms; FuzzSimilarityKernels holds the rune-kernel wrappers
// to them bit for bit.
func jaroRef(a, b string) float64 {
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, len(ra))
	matchedB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i], matchedB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(transpositions)/2)/m) / 3
}

func jaroWinklerRef(a, b string) float64 {
	j := jaroRef(a, b)
	ra, rb := []rune(strings.ToLower(a)), []rune(strings.ToLower(b))
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// FuzzSimilarityKernels checks the kernels the entity-matching features
// run on prepared values against the string-level definitions, bit for
// bit, on arbitrary strings (invalid UTF-8 included): token-id Jaccard
// against JaccardSets over TokenSet, and the rune-kernel wrappers Jaro
// and JaroWinkler against the direct string implementations.
func FuzzSimilarityKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string) {
		v := NewVocab()
		ids := JaccardIDs(v.TokenIDs(a), v.TokenIDs(b))
		sets := JaccardSets(TokenSet(a), TokenSet(b))
		if math.Float64bits(ids) != math.Float64bits(sets) {
			t.Errorf("JaccardIDs(%q, %q) = %v, JaccardSets = %v", a, b, ids, sets)
		}
		if got, want := Jaro(a, b), jaroRef(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
		}
		if got, want := JaroWinkler(a, b), jaroWinklerRef(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("JaroWinkler(%q, %q) = %v, reference %v", a, b, got, want)
		}
	})
}
