package em

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"visclean/internal/dataset"
)

// TestSplitReplayMatchesRebuild holds SplitReplay to the full rebuild
// on generated inputs: a sorted merge list (some entries naming ids past
// the table), must-links and cannot-links. For every
// base cluster no cannot-link endpoint touches, and every pair inside
// it, the replay must equal ClusterBuilder.Build(nil, {pair})
// restricted to that cluster, and every other base cluster must stay
// intact under the rebuild. For a cluster a cannot-link touches, Split
// must decline, and the generated inputs must include such clusters
// where a replay without that guard would be wrong.
func TestSplitReplayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	replayed, declined, unsound := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(36)
		tbl := dataset.NewTable(dataset.Schema{{Name: "K", Kind: dataset.String}})
		for i := 0; i < n; i++ {
			tbl.MustAppend([]dataset.Value{dataset.Str("x")})
		}
		// Pairs draw from two ids past the table too, so some name
		// absent tuples, which the merge process skips.
		span := n + 2
		randPair := func() Pair {
			a, b := dataset.TupleID(rng.Intn(span)), dataset.TupleID(rng.Intn(span))
			for a == b {
				b = dataset.TupleID(rng.Intn(span))
			}
			return MakePair(a, b)
		}
		var cands []Pair
		probs := map[Pair]float64{}
		for i := rng.Intn(3 * n); i > 0; i-- {
			p := randPair()
			if _, dup := probs[p]; !dup {
				cands = append(cands, p)
				probs[p] = float64(rng.Intn(8)) / 7
			}
		}
		sorted := mergeList(cands, func(p Pair) float64 { return probs[p] }, 0.5)
		var confirmed, split []Pair
		for i := rng.Intn(4); i > 0; i-- {
			confirmed = append(confirmed, randPair())
		}
		for i := rng.Intn(4); i > 0; i-- {
			split = append(split, randPair())
		}

		b := NewClusterBuilder(tbl, sorted, ClusterConfig{Confirmed: confirmed, Split: split})
		groups := b.Build(nil, nil).Groups(1)
		groupOf := map[dataset.TupleID]int{}
		for gi, g := range groups {
			for _, id := range g {
				groupOf[id] = gi
			}
		}
		touched := map[int]bool{}
		for _, p := range split {
			for _, id := range []dataset.TupleID{p.A, p.B} {
				if gi, ok := groupOf[id]; ok {
					touched[gi] = true
				}
			}
		}
		replay := b.NewSplitReplay(groupOf)
		unguarded := &SplitReplay{confirmed: replay.confirmed, sorted: replay.sorted}
		for gi, g := range groups {
			for x := 0; x < len(g); x++ {
				for y := x + 1; y < len(g); y++ {
					pair := MakePair(g[x], g[y])
					full := b.Build(nil, []Pair{pair})
					want := restrictTo(full, g)
					got, ok := replay.Split(gi, g, pair)
					if touched[gi] {
						if ok {
							t.Fatalf("trial %d: Split replayed %v inside %v, which a cannot-link touches", trial, pair, g)
						}
						declined++
						if local, _ := unguarded.Split(gi, g, pair); !reflect.DeepEqual(local, want) {
							unsound++
						}
						continue
					}
					if !ok || !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d, cluster %v, cannot-link %v: replay %v (ok=%v), rebuild %v", trial, g, pair, got, ok, want)
					}
					for gj, other := range groups {
						if gj != gi && !full.GroupIntact(other) {
							t.Fatalf("trial %d, cannot-link %v inside %v broke cluster %v", trial, pair, g, other)
						}
					}
					replayed++
				}
			}
		}
	}
	if replayed < 100 {
		t.Fatalf("only %d in-cluster cannot-links replayed; the generator no longer forms clusters", replayed)
	}
	if unsound == 0 {
		t.Fatalf("no touched cluster where a replay would be wrong among %d declined splits; the guard goes untested", declined)
	}
	t.Logf("%d in-cluster cannot-links replayed; %d declined, %d of which an unguarded replay gets wrong", replayed, declined, unsound)
}

// restrictTo returns the clusters of c among members, each sorted and
// ordered by first member, as Clusters.Groups orders them.
func restrictTo(c *Clusters, members []dataset.TupleID) [][]dataset.TupleID {
	byRoot := map[int][]dataset.TupleID{}
	for _, id := range members {
		root, _ := c.Root(id)
		byRoot[root] = append(byRoot[root], id)
	}
	var out [][]dataset.TupleID
	for _, part := range byRoot {
		sort.Slice(part, func(a, b int) bool { return part[a] < part[b] })
		out = append(out, part)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}
