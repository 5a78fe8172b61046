package pipeline

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"visclean/internal/dataset"
)

// resolveRef is the map-keyed definition resolve must reproduce: values
// grouped by their String() rendering, the last value seen kept per
// group, keys walked in sorted order for the majority and the string
// tie-break, and a numeric tie resolved to the median.
func resolveRef(vals []dataset.Value, kind dataset.Kind) dataset.Value {
	counts := map[string]int{}
	byKey := map[string]dataset.Value{}
	var nums []float64
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		key := v.String()
		counts[key]++
		byKey[key] = v
		if f, ok := v.Float(); ok {
			nums = append(nums, f)
		}
	}
	if len(counts) == 0 {
		return dataset.Null(kind)
	}
	bestKey := ""
	bestCount := 0
	tie := false
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case counts[k] > bestCount:
			bestKey, bestCount, tie = k, counts[k], false
		case counts[k] == bestCount:
			tie = true
		}
	}
	if !tie || kind == dataset.String {
		return byKey[bestKey]
	}
	sort.Float64s(nums)
	mid := len(nums) / 2
	if len(nums)%2 == 1 {
		return dataset.Num(nums[mid])
	}
	return dataset.Num((nums[mid-1] + nums[mid]) / 2)
}

// sameCell compares two resolved cells exactly: kind, nullness, text,
// and float bits.
func sameCell(a, b dataset.Value) bool {
	if a.Kind() != b.Kind() || a.IsNull() != b.IsNull() {
		return false
	}
	fa, _ := a.Float()
	fb, _ := b.Float()
	return math.Float64bits(fa) == math.Float64bits(fb) && cellText(a) == cellText(b)
}

// TestResolveMatchesReference holds resolve to resolveRef on generated
// cluster cells: nulls, ±0, NaN (which dataset.Num stores as null),
// ±Inf, ties of two and three groups, duplicate strings, the empty
// string and non-ASCII text.
func TestResolveMatchesReference(t *testing.T) {
	nums := []float64{0, math.Copysign(0, -1), 1, 1.5, 43, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -2}
	strs := []string{"", "ICDE", "icde", "SIGMOD", "Straße", "STRASSE", "İstanbul", "a", "b"}
	gen := func(rng *rand.Rand, kind dataset.Kind) []dataset.Value {
		// Few distinct values per list, so repeats and ties are common.
		pool := 1 + rng.Intn(4)
		vals := make([]dataset.Value, 1+rng.Intn(7))
		for i := range vals {
			k := rng.Intn(pool + 1)
			switch {
			case k == pool || rng.Intn(8) == 0:
				vals[i] = dataset.Null(kind)
			case kind == dataset.Float:
				vals[i] = dataset.Num(nums[(k*7+pool)%len(nums)])
			default:
				vals[i] = dataset.Str(strs[(k*5+pool)%len(strs)])
			}
		}
		return vals
	}
	fixed := map[string][]dataset.Value{
		"signed-zeros-tie": {dataset.Num(0), dataset.Num(math.Copysign(0, -1))},
		"signed-zeros":     {dataset.Num(0), dataset.Num(math.Copysign(0, -1)), dataset.Num(math.Copysign(0, -1))},
		"infs-tie":         {dataset.Num(math.Inf(1)), dataset.Num(math.Inf(-1))},
		"three-way-tie":    {dataset.Num(3), dataset.Num(1), dataset.Num(2), dataset.Num(2), dataset.Num(1), dataset.Num(3)},
		"null-and-empty":   {dataset.Null(dataset.String), dataset.Str(""), dataset.Null(dataset.String)},
		"string-tie":       {dataset.Str("b"), dataset.Str("İstanbul"), dataset.Str("a"), dataset.Str("b"), dataset.Str("a")},
		"all-null":         {dataset.Null(dataset.Float), dataset.Null(dataset.Float)},
		"empty":            nil,
	}
	for name, vals := range fixed {
		kind := dataset.String
		if len(vals) > 0 {
			kind = vals[0].Kind()
		}
		if got, want := resolve(vals, kind), resolveRef(vals, kind); !sameCell(got, want) {
			t.Errorf("%s: resolve = %#v, reference %#v", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		kind := dataset.Float
		if i%2 == 1 {
			kind = dataset.String
		}
		vals := gen(rng, kind)
		if got, want := resolve(vals, kind), resolveRef(vals, kind); !sameCell(got, want) {
			t.Fatalf("resolve(%v) = %#v, reference %#v", vals, got, want)
		}
	}
}
