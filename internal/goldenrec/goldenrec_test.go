package goldenrec

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"visclean/internal/dataset"
)

func venueTable(t testing.TB) (*dataset.Table, [][]dataset.TupleID) {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "Title", Kind: dataset.String},
		{Name: "Venue", Kind: dataset.String},
	})
	add := func(title, venue string) dataset.TupleID {
		return tbl.MustAppend([]dataset.Value{dataset.Str(title), dataset.Str(venue)})
	}
	// Cluster C1 = {t1,t2,t3} (NADEEF), C2 = {t5,t6} (TsingNUS), mirroring
	// the paper's §IV example.
	t1 := add("NADEEF", "ACM SIGMOD")
	t2 := add("NADEEF", "SIGMOD Conf.")
	t3 := add("NADEEF", "SIGMOD")
	t5 := add("TsingNUS", "SIGMOD'13")
	t6 := add("TsingNUS", "SIGMOD'13")
	clusters := [][]dataset.TupleID{{t1, t2, t3}, {t5, t6}}
	return tbl, clusters
}

func TestClusterCandidates(t *testing.T) {
	tbl, clusters := venueTable(t)
	venue := tbl.ColumnIndex("Venue")
	cands := ClusterCandidates(tbl, clusters, venue)
	// C1 has three distinct venues -> 3 pairs; C2 has one distinct venue.
	if len(cands) != 3 {
		t.Fatalf("candidates = %v", cands)
	}
	want := map[[2]string]bool{
		{"ACM SIGMOD", "SIGMOD Conf."}: true,
		{"ACM SIGMOD", "SIGMOD"}:       true,
		{"SIGMOD", "SIGMOD Conf."}:     true,
	}
	for _, c := range cands {
		if !want[[2]string{c.V1, c.V2}] {
			t.Errorf("unexpected candidate %+v", c)
		}
		if c.Sim <= 0 || c.Sim > 1 {
			t.Errorf("similarity out of range: %+v", c)
		}
	}
}

func TestCrossClusterCandidates(t *testing.T) {
	tbl, clusters := venueTable(t)
	venue := tbl.ColumnIndex("Venue")
	cands := CrossClusterCandidates(tbl, clusters, venue, 0.2)
	// Strategy 2 must surface SIGMOD'13 <-> SIGMOD (paper's example) and
	// must not repeat within-cluster pairs.
	foundCross := false
	for _, c := range cands {
		if c.V1 == "SIGMOD" && c.V2 == "SIGMOD'13" {
			foundCross = true
		}
		if (c.V1 == "ACM SIGMOD" && c.V2 == "SIGMOD") || (c.V1 == "ACM SIGMOD" && c.V2 == "SIGMOD Conf.") {
			// cross-cluster by ownership is fine only if the values really
			// come from different clusters; ACM SIGMOD exists only in C1,
			// so any pair of C1 values is within-cluster and excluded.
			t.Errorf("within-cluster pair leaked: %+v", c)
		}
	}
	if !foundCross {
		t.Fatalf("SIGMOD'13 <-> SIGMOD not found in %v", cands)
	}
}

func TestCombinedCandidatesNoDuplicates(t *testing.T) {
	tbl, clusters := venueTable(t)
	venue := tbl.ColumnIndex("Venue")
	all := Candidates(tbl, clusters, venue, 0.2)
	seen := map[[2]string]bool{}
	for _, c := range all {
		key := [2]string{c.V1, c.V2}
		if seen[key] {
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[key] = true
		if c.V1 >= c.V2 {
			t.Fatalf("non-canonical candidate order %+v", c)
		}
	}
	if len(all) < 4 {
		t.Fatalf("expected strategies to combine, got %v", all)
	}
}

func TestCandidatesSkipNullsAndMissingTuples(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "V", Kind: dataset.String}})
	a := tbl.MustAppend([]dataset.Value{dataset.Str("x")})
	b := tbl.MustAppend([]dataset.Value{dataset.Null(dataset.String)})
	cands := ClusterCandidates(tbl, [][]dataset.TupleID{{a, b, dataset.TupleID(99)}}, 0)
	if len(cands) != 0 {
		t.Fatalf("candidates = %v", cands)
	}
}

func TestStandardizerCanonicalElection(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "Venue", Kind: dataset.String}})
	for _, v := range []string{"SIGMOD", "SIGMOD", "SIGMOD", "ACM SIGMOD", "SIGMOD Conf."} {
		tbl.MustAppend([]dataset.Value{dataset.Str(v)})
	}
	s := NewStandardizer(tbl, 0)
	s.Approve("SIGMOD", "ACM SIGMOD")
	s.Approve("ACM SIGMOD", "SIGMOD Conf.")
	if !s.SameClass("SIGMOD", "SIGMOD Conf.") {
		t.Fatal("transitivity broken")
	}
	// SIGMOD is most frequent -> canonical for all.
	for _, v := range []string{"SIGMOD", "ACM SIGMOD", "SIGMOD Conf."} {
		if got := s.Canonical(v); got != "SIGMOD" {
			t.Fatalf("Canonical(%q) = %q", v, got)
		}
	}
	// Untracked value canonicalizes to itself.
	if got := s.Canonical("VLDB"); got != "VLDB" {
		t.Fatalf("Canonical(VLDB) = %q", got)
	}
}

func TestStandardizerTieBreaks(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "V", Kind: dataset.String}})
	for _, v := range []string{"AB", "XYZ"} {
		tbl.MustAppend([]dataset.Value{dataset.Str(v)})
	}
	s := NewStandardizer(tbl, 0)
	s.Approve("AB", "XYZ")
	// Equal frequency -> shorter wins.
	if got := s.Canonical("XYZ"); got != "AB" {
		t.Fatalf("Canonical = %q, want AB", got)
	}
}

func TestCanonicalContainmentElection(t *testing.T) {
	// "SIGMOD'13" is more frequent, but "SIGMOD" is the shared core of
	// the class: containment must elect it (the paper's golden value).
	tbl := dataset.NewTable(dataset.Schema{{Name: "Venue", Kind: dataset.String}})
	for _, v := range []string{"SIGMOD'13", "SIGMOD'13", "SIGMOD", "ACM SIGMOD", "SIGMOD Conf."} {
		tbl.MustAppend([]dataset.Value{dataset.Str(v)})
	}
	s := NewStandardizer(tbl, 0)
	s.Approve("SIGMOD", "SIGMOD'13")
	s.Approve("SIGMOD", "ACM SIGMOD")
	s.Approve("SIGMOD", "SIGMOD Conf.")
	for _, v := range []string{"SIGMOD'13", "ACM SIGMOD", "SIGMOD Conf.", "SIGMOD"} {
		if got := s.Canonical(v); got != "SIGMOD" {
			t.Fatalf("Canonical(%q) = %q, want SIGMOD", v, got)
		}
	}
}

func TestCandidateProbFields(t *testing.T) {
	tbl, clusters := venueTable(t)
	venue := tbl.ColumnIndex("Venue")
	for _, c := range ClusterCandidates(tbl, clusters, venue) {
		if c.Prob != ClusterConfidence {
			t.Fatalf("strategy-1 candidate prob = %v, want %v", c.Prob, ClusterConfidence)
		}
	}
	for _, c := range CrossClusterCandidates(tbl, clusters, venue, 0.2) {
		if c.Prob != c.Sim {
			t.Fatalf("strategy-2 candidate prob = %v, sim = %v", c.Prob, c.Sim)
		}
	}
}

func TestCanonicalCacheInvalidatedByApprove(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "V", Kind: dataset.String}})
	for _, v := range []string{"A", "A B"} {
		tbl.MustAppend([]dataset.Value{dataset.Str(v)})
	}
	s := NewStandardizer(tbl, 0)
	if got := s.Canonical("A B"); got != "A B" {
		t.Fatalf("pre-approve canonical = %q", got)
	}
	s.Approve("A", "A B")
	if got := s.Canonical("A B"); got != "A" {
		t.Fatalf("post-approve canonical = %q (cache stale?)", got)
	}
}

func TestFrozenStandardizerConcurrentReads(t *testing.T) {
	// After Freeze, SameClass/Canonical must perform no writes: this
	// test exists to run under -race with concurrent readers.
	tbl := dataset.NewTable(dataset.Schema{{Name: "Venue", Kind: dataset.String}})
	for _, v := range []string{"SIGMOD", "ACM SIGMOD", "SIGMOD Conf.", "VLDB", "PVLDB", "ICDE"} {
		tbl.MustAppend([]dataset.Value{dataset.Str(v)})
	}
	s := NewStandardizer(tbl, 0)
	s.Approve("SIGMOD", "ACM SIGMOD")
	s.Approve("ACM SIGMOD", "SIGMOD Conf.")
	s.Approve("VLDB", "PVLDB")
	s.Freeze()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := s.Canonical("SIGMOD Conf."); got != "SIGMOD" {
					t.Errorf("Canonical = %q", got)
					return
				}
				if !s.SameClass("VLDB", "PVLDB") || s.SameClass("ICDE", "VLDB") {
					t.Error("SameClass wrong on frozen standardizer")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Approve re-dirties; a second Freeze restores the invariant.
	s.Approve("ICDE", "VLDB")
	s.Freeze()
	if !s.SameClass("ICDE", "PVLDB") {
		t.Fatal("post-freeze Approve lost")
	}
}

// scanMembers is the class-member lookup the member lists replaced: a
// scan of the whole parent map, kept here as their reference.
func scanMembers(s *Standardizer, root string) []string {
	out := []string{root}
	for v := range s.parent {
		if v != root && s.find(v) == root {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// TestStandardizerMatchesReplay drives standardizers through random
// interleavings of Approve, Canonical, Freeze and Clone over values that
// share tokens. After every step each value's Canonical must equal that
// of a fresh standardizer replaying the same approvals, every class's
// member list must equal a scan of the parent map, and a clone approved
// once more must match its own replay while its source's answers stay
// as they were. A clone that read stale canonicals passed the pricing
// suite, whose full-rebuild reference clones and approves the same way;
// this is the test that catches it.
func TestStandardizerMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tokens := []string{"sigmod", "acm", "conf", "vldb", "pvldb", "icde", "intl", "data", "'13"}
	for trial := 0; trial < 30; trial++ {
		tbl := dataset.NewTable(dataset.Schema{{Name: "V", Kind: dataset.String}})
		var values []string
		seen := map[string]bool{}
		for i := 0; i < 6+rng.Intn(14); i++ {
			words := make([]string, 1+rng.Intn(3))
			for w := range words {
				words[w] = tokens[rng.Intn(len(tokens))]
			}
			v := strings.Join(words, " ")
			for n := 1 + rng.Intn(3); n > 0; n-- {
				tbl.MustAppend([]dataset.Value{dataset.Str(v)})
			}
			if !seen[v] {
				seen[v] = true
				values = append(values, v)
			}
		}
		values = append(values, "unseen value") // approvable, never in the table
		pick := func() string { return values[rng.Intn(len(values))] }

		replay := func(approvals [][2]string) *Standardizer {
			ref := NewStandardizer(tbl, 0)
			for _, a := range approvals {
				ref.Approve(a[0], a[1])
			}
			return ref
		}
		answers := func(s *Standardizer) map[string]string {
			out := map[string]string{}
			for _, v := range values {
				out[v] = s.Canonical(v)
			}
			return out
		}
		check := func(step string, s *Standardizer, approvals [][2]string) {
			t.Helper()
			if got, want := answers(s), answers(replay(approvals)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s after %v: canonicals %v, replay %v", trial, step, approvals, got, want)
			}
			for _, v := range values {
				root := s.find(v)
				if got, want := s.classMembers(root), scanMembers(s, root); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s: class of %q lists %q, parent map holds %q", trial, step, v, got, want)
				}
			}
		}

		s := NewStandardizer(tbl, 0)
		var approvals [][2]string
		var source *Standardizer // the standardizer s was last cloned from
		var sourceAnswers map[string]string
		for step := 0; step < 25; step++ {
			var op string
			switch rng.Intn(5) {
			case 0, 1:
				op = "approve"
				a := [2]string{pick(), pick()}
				s.Approve(a[0], a[1])
				approvals = append(approvals, a)
			case 2:
				op = "canonical"
				s.Canonical(pick())
			case 3:
				op = "freeze"
				s.Freeze()
			case 4:
				op = "clone"
				source, sourceAnswers = s, answers(s)
				s = s.Clone()
			}
			check(op, s, approvals)

			// A clone approved once more answers as its own replay, and
			// its source as before.
			extra := [2]string{pick(), pick()}
			c := s.Clone()
			c.Approve(extra[0], extra[1])
			check(op+", clone approved once more", c, append(approvals[:len(approvals):len(approvals)], extra))
			check(op+", source of that clone", s, approvals)
			if source != nil {
				if got := answers(source); !reflect.DeepEqual(got, sourceAnswers) {
					t.Fatalf("trial %d, %s: approving on a clone moved its source's answers %v to %v", trial, op, sourceAnswers, got)
				}
			}
		}
	}
}
