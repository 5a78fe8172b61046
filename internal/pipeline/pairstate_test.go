package pipeline

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"visclean/internal/artifact"
	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/knn"
	"visclean/internal/stringsim"
	"visclean/internal/vql"
)

// venueSynonyms returns up to n ground-truth Venue synonym pairs, each
// from a different class, whose variants both occur in the dirty table
// and tokenize differently, so approving one re-tokenizes rows.
func venueSynonyms(t *testing.T, d *datagen.Dataset, venue, n int) [][2]string {
	t.Helper()
	byCanon := map[string][]string{}
	for v := range d.Dirty.DistinctStrings(venue) {
		c := d.Truth.CanonicalValue("Venue", v)
		byCanon[c] = append(byCanon[c], v)
	}
	canons := make([]string, 0, len(byCanon))
	for c := range byCanon {
		canons = append(canons, c)
	}
	sort.Strings(canons)
	var pairs [][2]string
	for _, c := range canons {
		vars := byCanon[c]
		sort.Strings(vars)
	class:
		for i := range vars {
			for j := i + 1; j < len(vars); j++ {
				if stringsim.Jaccard(vars[i], vars[j]) < 1 {
					pairs = append(pairs, [2]string{vars[i], vars[j]})
					break class
				}
			}
		}
		if len(pairs) == n {
			return pairs
		}
	}
	t.Fatalf("found %d of %d Venue synonym pairs", len(pairs), n)
	return nil
}

// sameNeighbours fails unless ix ranks every row's neighbours exactly as
// ref does.
func sameNeighbours(t *testing.T, what string, ix, ref *knn.Index, k int, accept func(int) bool) {
	t.Helper()
	for r := 0; r < ref.Table().NumRows(); r++ {
		if got, want := ix.Nearest(r, k, accept), ref.Nearest(r, k, accept); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: row %d neighbours %+v, private rebuild %+v", what, r, got, want)
		}
	}
}

// TestKnnBaseSharedAcrossSessions holds the knn artifact to its sharing
// contract under concurrency. Three sessions over one table bind one
// knn.Base from a shared cache and approve different Venue synonyms at
// the same time, so each re-tokenizes rows into its own sets. Two more
// indexes bound to the same Base rename every venue to text with
// tokens the Base lacks, so each mints ids in its own extension of the
// vocabulary. Afterwards every index ranks every row's neighbours
// exactly as a private knn.NewIndexCanon rebuild does, and the Base
// equals a fresh knn.NewBase: nothing wrote shared state. It is meant
// to run under go test -race -count=10.
func TestKnnBaseSharedAcrossSessions(t *testing.T) {
	cache := artifact.New(0)
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 7})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	venue := d.Dirty.ColumnIndex("Venue")
	pairs := venueSynonyms(t, d, venue, 3)

	sessions := make([]*Session, len(pairs))
	for i := range sessions {
		s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: 7, Artifacts: cache})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.knnIdx() // bind the shared Base before the approvals race
		sessions[i] = s
	}
	s0 := sessions[0]
	h, err := cache.Acquire(s0.Fingerprint(), s0.knnKind(), func() (artifact.Artifact, error) {
		t.Fatal("the sessions did not publish the knn artifact")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	base := h.Artifact().(*knn.Base)

	renamed := func(col int, v dataset.Value) string {
		if txt, ok := v.Text(); ok && col == venue {
			return "renamed " + txt + " qqzx"
		}
		return v.String()
	}
	var venueRows []int
	for r := 0; r < d.Dirty.NumRows(); r++ {
		if _, ok := d.Dirty.Get(r, venue).Text(); ok {
			venueRows = append(venueRows, r)
		}
	}
	bound := make([]*knn.Index, 2)

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.applyA("Venue", pairs[i][0], pairs[i][1], true)
			s.refreshModel()
		}()
	}
	for i := range bound {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bound[i] = base.Bind(d.Dirty, renamed)
			bound[i].ResetRows(venueRows)
		}()
	}
	wg.Wait()

	accept := func(r int) bool {
		_, ok := s0.table.Get(r, s0.yCol).Float()
		return ok
	}
	for i, s := range sessions {
		moved := false
		for _, v := range pairs[i] {
			moved = moved || s.std["Venue"].Canonical(v) != v
		}
		if !moved {
			t.Fatalf("session %d: approving %q left both canonical forms as they were", i, pairs[i])
		}
		sameNeighbours(t, "session "+pairs[i][0], s.knnIdx(), knn.NewIndexCanon(s.table, s.yCol, s.knnCanon), imputeK, accept)
	}
	fresh := knn.NewIndexCanon(d.Dirty, s0.yCol, renamed)
	for i, ix := range bound {
		if !strings.Contains(strings.Join(ix.Tokens(venueRows[0]), " "), "qqzx") {
			t.Fatalf("bound index %d: row %d lacks the renamed token", i, venueRows[0])
		}
		sameNeighbours(t, "renamed", ix, fresh, imputeK, accept)
	}
	if !reflect.DeepEqual(base, knn.NewBase(d.Dirty, s0.yCol)) {
		t.Fatal("the shared knn.Base differs from a fresh build: a session wrote shared state")
	}
}

// TestPairStateMatchesRecompute runs a live session through iterations
// whose answers change tuples that blocking candidates touch (M and O
// repairs) and confirm matches (T), and after every refresh holds the
// slice-held pair state to a from-scratch recomputation: each
// candidate's feature vector and probability equal FeaturesOf and
// ProbWithFeatures by Float64bits, the auto-merge list lists exactly
// the merged flags, and Q_T's bounded selection equals a full sort.
// This isolates the incidence-list dirty marking.
func TestPairStateMatchesRecompute(t *testing.T) {
	s, user := newArtSession(t, nil, 7)
	defer s.Close()
	incident := map[dataset.TupleID]bool{}
	for _, p := range s.candidates {
		incident[p.A], incident[p.B] = true, true
	}
	repaired, confirmed := 0, 0
	for it := 0; it < 8; it++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		for _, a := range s.History().Iterations[it] {
			switch {
			case (a.Kind == AnswerKindM || a.Kind == AnswerKindO && a.Yes) && incident[a.A]:
				repaired++
			case a.Kind == AnswerKindT && a.Yes:
				confirmed++
			}
		}
		checkPairState(t, s, it+1)
	}
	t.Logf("%d repairs of candidate tuples, %d T confirms", repaired, confirmed)
	if repaired == 0 || confirmed == 0 {
		t.Fatalf("vacuous: %d repairs of candidate tuples, %d T confirms", repaired, confirmed)
	}
}

func checkPairState(t *testing.T, s *Session, iter int) {
	t.Helper()
	feats := s.matcher.FeaturesOf(s.table, s.candidates)
	merged := 0
	for i, p := range s.candidates {
		if len(s.feats[i]) != len(feats[i]) {
			t.Fatalf("iteration %d: candidate %v has %d features, recompute %d", iter, p, len(s.feats[i]), len(feats[i]))
		}
		for j, f := range feats[i] {
			if math.Float64bits(s.feats[i][j]) != math.Float64bits(f) {
				t.Fatalf("iteration %d: candidate %v feature %d = %v, recompute %v", iter, p, j, s.feats[i][j], f)
			}
		}
		if want := s.matcher.ProbWithFeatures(p, feats[i]); math.Float64bits(s.probs[i]) != math.Float64bits(want) {
			t.Fatalf("iteration %d: candidate %v probability %v, recompute %v", iter, p, s.probs[i], want)
		}
		if s.merged[i] {
			merged++
		}
	}
	if merged != len(s.mergeList) {
		t.Fatalf("iteration %d: %d merged flags, merge list of %d", iter, merged, len(s.mergeList))
	}
	for _, sp := range s.mergeList {
		if i, ok := s.detector().candidateIndex().Find(sp.Pair); !ok || !s.merged[i] {
			t.Fatalf("iteration %d: merge list pair %v not flagged merged", iter, sp.Pair)
		}
	}

	// Q_T's bounded selection against a full sort of every unlabeled
	// candidate in range, at the session's cap, a cap of one and no cap.
	var all []em.ScoredPair
	for i, p := range s.candidates {
		if _, ok := s.matcher.Label(p); !ok && s.probs[i] >= 0.15 && s.probs[i] <= 0.9 {
			all = append(all, em.ScoredPair{Pair: p, Prob: s.probs[i]})
		}
	}
	sort.Slice(all, func(a, b int) bool { return moreUncertain(all[a], all[b]) })
	for _, n := range []int{maxT, 1, 0} {
		want := all
		if n > 0 && len(want) > n {
			want = want[:n]
		}
		if got := s.uncertainPairs(n, 0.15, 0.9); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: uncertainPairs(%d) = %v, full sort %v", iter, n, got, want)
		}
	}
}
