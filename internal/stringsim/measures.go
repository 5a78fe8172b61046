// Package stringsim implements the string similarity measures and the
// set-similarity join that VisClean's cleaning components rely on:
//
//   - token-set Jaccard, used by the entity-matching features (§IV, over
//     prepared token ids), the kNN index and attribute-duplicate
//     detection,
//   - Jaro-Winkler, the entity-matching features' edit-based measure,
//   - a prefix-filter string similarity self-join over token ids
//     (Jiang et al. [16]) used by Algorithm 1 Strategy 2 to find
//     cross-cluster synonym candidates.
package stringsim

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases s and splits it into alphanumeric word tokens.
// Punctuation such as the periods in "SIGMOD Conf." and apostrophes in
// "SIGMOD'13" separate tokens, which is what lets those variants overlap.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// TokenSet returns the deduplicated token set of s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, tok := range Tokenize(s) {
		set[tok] = struct{}{}
	}
	return set
}

func overlap(a, b map[string]struct{}) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// JaccardSets computes |a∩b| / |a∪b| over two sets. Two empty sets have
// similarity 1 (they are identical).
func JaccardSets(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := overlap(a, b)
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Jaccard is token-set Jaccard similarity of two strings.
func Jaccard(a, b string) float64 {
	return JaccardSets(TokenSet(a), TokenSet(b))
}

// LowerRunes returns the lower-cased runes of s, the form Jaro and
// JaroWinkler compare. Callers that score one string against many
// prepare it once and use the rune kernels.
func LowerRunes(s string) []rune { return []rune(strings.ToLower(s)) }

// Jaro computes the Jaro similarity of two strings.
func Jaro(a, b string) float64 { return jaroRunes(LowerRunes(a), LowerRunes(b)) }

// jaroRunes is Jaro over two LowerRunes forms.
func jaroRunes(ra, rb []rune) float64 {
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
	// One flag slice serves both strings, matchedA then matchedB; it
	// lives on the stack unless the strings are long.
	var stack [256]bool
	flags := stack[:]
	if n := len(ra) + len(rb); n > len(stack) {
		flags = make([]bool, n)
	}
	matchedA, matchedB := flags[:len(ra)], flags[len(ra):len(ra)+len(rb)]
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
	// Count transpositions among matched characters.
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

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix,
// with the standard scaling factor p=0.1 and prefix cap 4.
func JaroWinkler(a, b string) float64 {
	return JaroWinklerRunes(LowerRunes(a), LowerRunes(b))
}

// JaroWinklerRunes is JaroWinkler over two LowerRunes forms.
func JaroWinklerRunes(ra, rb []rune) float64 {
	j := jaroRunes(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}
