package transform

import (
	"reflect"
	"testing"
)

func TestObserveContainmentLearnsDecoration(t *testing.T) {
	l := NewLearner()
	l.Observe("ACM SIGMOD", "SIGMOD")
	if !l.IsDecorative("acm") {
		t.Fatal("acm not learned")
	}
	if l.IsDecorative("sigmod") {
		t.Fatal("core token marked decorative")
	}
	if !reflect.DeepEqual(l.decorative, map[string]int{"acm": 1}) {
		t.Fatalf("decorative = %v", l.decorative)
	}
}

func TestObserveNonContainmentTeachesNothing(t *testing.T) {
	l := NewLearner()
	l.Observe("VLDB", "Very Large Data Bases")
	if len(l.decorative) != 0 {
		t.Fatalf("non-containment pair taught %v", l.decorative)
	}
}

func TestGeneralization(t *testing.T) {
	l := NewLearner()
	l.Observe("ACM SIGMOD", "SIGMOD")
	if !l.Same("ACM KDD", "KDD") {
		t.Fatal("rule did not generalize to unseen family")
	}
	if l.Same("KDD", "SIGMOD") {
		t.Fatal("distinct cores conflated")
	}
	l.Observe("SIGMOD'13", "SIGMOD")
	if !l.Same("ICDE 13", "ICDE") {
		t.Fatal("year decoration did not generalize")
	}
}

func TestCore(t *testing.T) {
	l := NewLearner()
	l.Observe("SIGMOD Conf.", "SIGMOD")
	cases := map[string]string{
		"KDD Conf.":  "kdd",
		"ICDE":       "icde",
		"Conf.":      "", // all decoration
		"A B Conf.":  "a b",
		"conf CONF.": "",
	}
	for in, want := range cases {
		if got := l.Core(in); got != want {
			t.Errorf("Core(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEmptyCoreNeverMatches(t *testing.T) {
	l := NewLearner()
	l.Observe("X Conf.", "X")
	if l.Same("Conf.", "Conf.") {
		t.Fatal("empty cores must not match (would merge everything)")
	}
}

func TestMinSupport(t *testing.T) {
	l := NewLearner()
	l.MinSupport = 2
	l.Observe("ACM SIGMOD", "SIGMOD")
	if l.IsDecorative("acm") {
		t.Fatal("single observation should not reach support 2")
	}
	l.Observe("ACM KDD", "KDD")
	if !l.IsDecorative("acm") {
		t.Fatal("two observations should reach support 2")
	}
}

func TestGroups(t *testing.T) {
	l := NewLearner()
	l.Observe("ACM SIGMOD", "SIGMOD")
	l.Observe("SIGMOD Conf.", "SIGMOD")
	values := []string{
		"SIGMOD", "ACM SIGMOD", "SIGMOD Conf.",
		"KDD", "ACM KDD",
		"VLDB",  // singleton core
		"Conf.", // empty core
	}
	got := l.Groups(values)
	want := [][]string{
		{"ACM KDD", "KDD"},
		{"ACM SIGMOD", "SIGMOD", "SIGMOD Conf."},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

func TestCaseInsensitive(t *testing.T) {
	l := NewLearner()
	l.Observe("english", "English")
	// Identical token sets — no rule, but Same still holds via equal cores.
	if !l.Same("ENGLISH", "english") {
		t.Fatal("case variants should share a core")
	}
}
