package pipeline

// Multi-view sessions: one Session serving N concurrent VQL views over
// the same base data (DESIGN.md §13). Views share the cleaned relation —
// buildView/viewRowFor are query-independent — so the per-view cost is
// only its executor's registration over the committed rows, incremental
// delta evaluation and the distance baseline. Question benefit
// aggregates across views as the sum Σ_i dist_i, accumulated in view
// registration order from the first term, which keeps every worker
// count bit-identical and makes a single-view session the N=1 case of
// the same formula.

import (
	"fmt"

	"visclean/internal/dataset"
	"visclean/internal/vql"
)

// NumViews returns the number of registered views (≥ 1).
func (s *Session) NumViews() int { return len(s.queries) }

// ViewQueries returns the registered view queries in registration order;
// index 0 is the primary query.
func (s *Session) ViewQueries() []*vql.Query {
	return append([]*vql.Query(nil), s.queries...)
}

// validateView checks a query can join this session as a view: it must
// validate against the schema and share the session's measure column —
// M/O detection and repair write exactly one column (yCol), so a view
// measuring anything else would chart un-cleaned data.
func (s *Session) validateView(q *vql.Query) error {
	if err := q.Validate(s.table.Schema()); err != nil {
		return err
	}
	if s.table.ColumnIndex(q.Y) != s.yCol {
		return fmt.Errorf("pipeline: view %q: measure column %q differs from the session's %q — all views of one session share the measure that M/O repairs write",
			q.String(), q.Y, s.table.Schema()[s.yCol].Name)
	}
	return nil
}

// registerViewColumns extends the A-column set with one view's
// categorical columns: its X axis plus its categorical WHERE columns,
// in that order, deduplicated against columns already registered.
func (s *Session) registerViewColumns(q *vql.Query) {
	schema := s.table.Schema()
	s.addACol(s.table.ColumnIndex(q.X))
	for _, p := range q.Where {
		if !p.IsNum {
			s.addACol(schema.Index(p.Column))
		}
	}
}

// addACol appends column c to the A-column set when it is categorical
// and not yet registered.
func (s *Session) addACol(c int) {
	if c < 0 || s.table.Schema()[c].Kind != dataset.String {
		return
	}
	for _, have := range s.aColumns {
		if have == c {
			return
		}
	}
	s.aColumns = append(s.aColumns, c)
}

// AddView registers an additional view on a live session (a new
// dashboard panel opened mid-cleaning) and returns its view index. The
// registration is logged as an AnswerKindV history entry, so replay and
// snapshot restore re-add the view at exactly the same point in the
// answer sequence — A-column ordering, standardizer state and every
// later chart stay byte-identical. Callers must not invoke it
// concurrently with a running iteration (the service layer serializes
// it with Iterate).
func (s *Session) AddView(q *vql.Query) (int, error) {
	if err := s.applyAddView(q); err != nil {
		return 0, err
	}
	return len(s.queries) - 1, nil
}

// applyAddView validates, logs and applies one view registration — the
// shared path of AddView and history replay.
func (s *Session) applyAddView(q *vql.Query) error {
	if err := s.validateView(q); err != nil {
		return err
	}
	s.logAnswer(Answer{Kind: AnswerKindV, Query: q.String()})
	s.queries = append(s.queries, q)
	obsViewRegistrations.Inc()

	before := len(s.aColumns)
	s.registerViewColumns(q)
	if len(s.aColumns) == before {
		return nil
	}
	// New A-columns change what later model refreshes canonicalize:
	// rebuild the synonym classes now (the new columns start with
	// identity standardizers — no votes touch them yet), and extend the
	// kNN canonical snapshot and value→rows lists if an index already
	// exists (re-snapshotting an unchanged column records the same
	// canonical forms, a no-op).
	s.rebuildStandardizers()
	if s.knnIndex != nil {
		s.snapshotCanon()
	}
	return nil
}
