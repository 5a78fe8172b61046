// Package transform implements the string-transformation learning that
// backs VisClean's attribute standardization, in the spirit of the
// unsupervised string transformation learner the paper builds on
// (Deng et al., "Unsupervised String Transformation Learning for Entity
// Consolidation", ICDE 2019 — the paper's [11]).
//
// The learner observes approved value equivalences ("ACM SIGMOD" ≈
// "SIGMOD") and induces token-level deletion rules: when one value's
// token set contains the other's, the surplus tokens are evidence of
// *decorative* tokens for the column ("acm", "conf", "13"). Two values
// whose non-decorative cores coincide are then predicted equivalent even
// if that specific pair was never approved — one answer generalizes to a
// whole family of spellings, which is what makes a ~15-question budget
// able to standardize hundreds of variants.
//
// Rules are scoped per column (a Learner instance per column): "13" may
// be decoration in a venue column and meaningful in a jersey-number
// column.
package transform

import (
	"sort"
	"strings"

	"visclean/internal/stringsim"
)

// Learner accumulates equivalence examples and induces deletion rules.
type Learner struct {
	// decorative maps token -> number of approvals that evidenced it.
	decorative map[string]int
	// MinSupport is how many independent approvals must evidence a token
	// before it is treated as decorative. 1 (the default) follows the
	// paper's aggressive single-example generalization; raising it trades
	// recall for safety under noisy approvals.
	MinSupport int
}

// NewLearner returns an empty learner with MinSupport 1.
func NewLearner() *Learner {
	return &Learner{decorative: map[string]int{}, MinSupport: 1}
}

// Observe records an approved equivalence between two spellings. Only
// containment-related pairs yield rules: "VLDB" ≈ "Very Large Data
// Bases" shares no tokens and teaches nothing token-wise (such pairs
// still standardize via their explicit approval).
func (l *Learner) Observe(v1, v2 string) {
	t1 := stringsim.TokenSet(v1)
	t2 := stringsim.TokenSet(v2)
	switch {
	case subset(t1, t2):
		l.addSurplus(t2, t1)
	case subset(t2, t1):
		l.addSurplus(t1, t2)
	}
}

func (l *Learner) addSurplus(from, minus map[string]struct{}) {
	for t := range from {
		if _, keep := minus[t]; !keep {
			l.decorative[t]++
		}
	}
}

// IsDecorative reports whether a token has reached MinSupport evidence.
func (l *Learner) IsDecorative(token string) bool {
	min := l.MinSupport
	if min < 1 {
		min = 1
	}
	return l.decorative[strings.ToLower(token)] >= min
}

// Core returns the canonical signature of a value: its non-decorative
// tokens, sorted and joined. An empty core means every token was
// decoration; such values never generalize (nothing to anchor on).
func (l *Learner) Core(v string) string {
	var core []string
	for t := range stringsim.TokenSet(v) {
		if !l.IsDecorative(t) {
			core = append(core, t)
		}
	}
	sort.Strings(core)
	return strings.Join(core, " ")
}

// Same predicts whether two values denote the same attribute entity
// under the learned rules.
func (l *Learner) Same(v1, v2 string) bool {
	c1 := l.Core(v1)
	if c1 == "" {
		return false
	}
	return c1 == l.Core(v2)
}

// Groups partitions the given values by core signature, dropping
// singleton groups and empty cores. Each group is sorted; groups are
// ordered by their first member. The pipeline merges each group into one
// synonym class (subject to user cannot-links).
func (l *Learner) Groups(values []string) [][]string {
	byCore := map[string][]string{}
	for _, v := range values {
		core := l.Core(v)
		if core == "" {
			continue
		}
		byCore[core] = append(byCore[core], v)
	}
	var out [][]string
	for _, group := range byCore {
		if len(group) < 2 {
			continue
		}
		sort.Strings(group)
		out = append(out, group)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func subset(a, b map[string]struct{}) bool {
	if len(a) == 0 || len(a) > len(b) {
		return false
	}
	for t := range a {
		if _, ok := b[t]; !ok {
			return false
		}
	}
	return true
}
