package pipeline

import (
	"fmt"

	"visclean/internal/dataset"
	"visclean/internal/em"
	"visclean/internal/vql"
)

// Answer kind tags, matching the paper's four question classes.
const (
	AnswerKindT = "T" // entity match (tuple pair)
	AnswerKindA = "A" // attribute synonym (value pair)
	AnswerKindM = "M" // missing-value imputation
	AnswerKindO = "O" // outlier verdict + correction
	// AnswerKindV records a view added mid-session (AddView). Not a
	// user answer in the paper's sense, but it must live in the ordered
	// log: adding a view extends the A-column set, and replaying answers
	// with the final column set instead of the as-of-then one would
	// diverge.
	AnswerKindV = "V"
)

// Answer is one applied user answer. The session records every applied
// answer into its history log, which is the recoverable core of a
// session: replaying the log against a freshly constructed, identically
// configured session reproduces the exact table, model and clustering
// state (training is deterministic given the label set and seed, see
// em.Matcher.Train).
type Answer struct {
	Kind string `json:"kind"`
	// A/B are the tuple ids of a T question; A alone carries the tuple
	// id of an M or O question.
	A dataset.TupleID `json:"a,omitempty"`
	B dataset.TupleID `json:"b,omitempty"`
	// Column/V1/V2 identify an A question.
	Column string `json:"column,omitempty"`
	V1     string `json:"v1,omitempty"`
	V2     string `json:"v2,omitempty"`
	// Yes is the boolean verdict: T match, A same, O is-an-outlier.
	Yes bool `json:"yes,omitempty"`
	// Value is the numeric answer of an M or O question.
	Value float64 `json:"value,omitempty"`
	// Query is the VQL text of a view added mid-session (kind V).
	Query string `json:"query,omitempty"`
}

// History is a session's answer log: one answer group per completed
// iteration, plus the applied-but-uncommitted answers of an iteration
// that was interrupted (cancelled or crashed) mid-CQG. It is the
// serializable payload of a session snapshot.
type History struct {
	Iterations [][]Answer `json:"iterations"`
	Partial    []Answer   `json:"partial,omitempty"`
}

// NumAnswers counts every logged answer, committed or partial.
func (h History) NumAnswers() int {
	n := len(h.Partial)
	for _, it := range h.Iterations {
		n += len(it)
	}
	return n
}

// History returns a deep copy of the session's answer log. Callers must
// not invoke it concurrently with a running iteration.
func (s *Session) History() History {
	h := History{}
	if len(s.committed) > 0 {
		h.Iterations = make([][]Answer, len(s.committed))
		for i, it := range s.committed {
			h.Iterations[i] = append([]Answer(nil), it...)
		}
	}
	if len(s.current) > 0 {
		h.Partial = append([]Answer(nil), s.current...)
	}
	return h
}

// logAnswer appends an applied answer to the in-flight iteration's log.
// Every state change, answers and view registrations alike, passes
// through here, so it also drops the committed relation.
func (s *Session) logAnswer(a Answer) {
	s.rel = nil
	s.current = append(s.current, a)
}

// commitCurrent seals the in-flight answers as one iteration group.
// Answers left over from a previously interrupted iteration are folded
// into the next committed group, which mirrors the live state evolution
// exactly: both apply those answers before the group's single model
// refresh.
func (s *Session) commitCurrent() {
	s.committed = append(s.committed, s.current)
	s.current = nil
}

// Replay re-applies a logged history to a freshly constructed session:
// each committed group's answers are applied in order followed by one
// model refresh (the step-6 retrain RunIteration would have done), then
// any partial answers are applied without a refresh. The session must be
// fresh — same table, query, key columns and Config as the one that
// produced the history — or the replayed state diverges.
func (s *Session) Replay(h History) error {
	if s.iter != 0 || len(s.committed) != 0 || len(s.current) != 0 {
		return fmt.Errorf("pipeline: Replay requires a fresh session (iteration %d, %d logged answers)",
			s.iter, len(s.committed)+len(s.current))
	}
	for i, group := range h.Iterations {
		for _, a := range group {
			if err := s.replayAnswer(a); err != nil {
				return fmt.Errorf("pipeline: replay iteration %d: %w", i+1, err)
			}
		}
		s.refreshModel()
		s.iter++
		s.commitCurrent()
	}
	for _, a := range h.Partial {
		if err := s.replayAnswer(a); err != nil {
			return fmt.Errorf("pipeline: replay partial answers: %w", err)
		}
	}
	return nil
}

// replayAnswer routes one logged answer through the same apply path the
// live iteration used, which also re-logs it — so a restored session's
// own History() is immediately snapshot-complete again.
func (s *Session) replayAnswer(a Answer) error {
	switch a.Kind {
	case AnswerKindT:
		s.applyT(em.MakePair(a.A, a.B), a.Yes)
	case AnswerKindA:
		s.applyA(a.Column, a.V1, a.V2, a.Yes)
	case AnswerKindM:
		s.applyM(a.A, a.Value)
	case AnswerKindO:
		s.applyO(a.A, a.Yes, a.Value)
	case AnswerKindV:
		q, err := vql.Parse(a.Query)
		if err != nil {
			return fmt.Errorf("view registration %q: %w", a.Query, err)
		}
		return s.applyAddView(q)
	default:
		return fmt.Errorf("unknown answer kind %q", a.Kind)
	}
	return nil
}
