package pipeline

import (
	"fmt"

	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/vis"
)

// committedRel is the session's committed cleaned relation: the entity
// partition, each cluster's consolidated row, and every view's chart
// and distance baseline over those rows. It is a pure function of the
// clusters, the standardizers, the working table and the view list, so
// the session drops it whenever one of them changes (logAnswer,
// refreshModel, rebuildStandardizers) and rebuilds it on the next read.
// Within an iteration that makes one build serve the after charts, the
// service's cached state, the distance to truth, the next iteration's
// before charts and the delta pricer's base rows.
//
// Each part fills on first use. A pristine session serves its charts
// from the shared artifact cache and builds rows only when the pricer
// first needs them; baselines are built by the first pricer.
type committedRel struct {
	groups [][]dataset.TupleID // clusters.Groups(1)
	rows   [][]dataset.Value   // rows[gi]: group gi's view row, nil when it yields none; nil until built

	charts []*vis.Data          // per view, registration order; nil until built
	bases  []*distance.Baseline // aligned with charts; nil until built
}

// relation returns the committed relation, starting an empty one after
// an invalidation.
func (s *Session) relation() *committedRel {
	if s.rel == nil {
		s.rel = &committedRel{}
	}
	return s.rel
}

// relRows returns the committed relation with its partition and rows
// built, consolidating every cluster through viewRowFor — the same rows
// buildView appends, in the same order.
func (s *Session) relRows() *committedRel {
	r := s.relation()
	if r.rows != nil {
		return r
	}
	r.groups = s.clusters.Groups(1)
	r.rows = make([][]dataset.Value, len(r.groups))
	for gi, g := range r.groups {
		if row, ok := s.viewRowFor(g, s.std, nil); ok {
			r.rows[gi] = row
		}
	}
	return r
}

// relTable materializes the committed rows as a table: exactly
// buildView(s.clusters, s.std, nil), without re-resolving a cell.
func (s *Session) relTable() *dataset.Table {
	view := dataset.NewTable(s.table.Schema())
	for _, row := range s.relRows().rows {
		if row != nil {
			view.MustAppend(row)
		}
	}
	return view
}

// relCharts returns every view's committed chart. The slice is the
// relation's own: callers that hand it out must copy it.
func (s *Session) relCharts() ([]*vis.Data, error) {
	r := s.relation()
	if r.charts != nil {
		return r.charts, nil
	}
	charts := make([]*vis.Data, len(s.queries))
	if s.pristine() {
		served := true
		for v := range s.queries {
			if charts[v] = s.pristineVisView(v); charts[v] == nil {
				served = false
				break
			}
		}
		if served {
			r.charts = charts
			return charts, nil
		}
	}
	view := s.relTable()
	for v, q := range s.queries {
		d, err := q.Execute(view)
		if err != nil {
			return nil, err
		}
		charts[v] = d
	}
	r.charts = charts
	return charts, nil
}

// relBaselines returns each view's distance baseline over its committed
// chart. Callers must have read relCharts without error first.
func (s *Session) relBaselines() []*distance.Baseline {
	r := s.relation()
	if r.bases == nil {
		r.bases = make([]*distance.Baseline, len(r.charts))
		for v, d := range r.charts {
			r.bases[v] = s.baselineFor(v, d)
		}
	}
	return r.bases
}

// CurrentVis computes the primary view's visualization over the current
// cleaned view (framework step 7).
func (s *Session) CurrentVis() (*vis.Data, error) {
	return s.CurrentVisView(0)
}

// CurrentVisView returns view v's visualization over the current cleaned
// view, or an error when v is not in [0, NumViews()).
func (s *Session) CurrentVisView(v int) (*vis.Data, error) {
	if v < 0 || v >= len(s.queries) {
		return nil, fmt.Errorf("pipeline: view %d out of range: the session has %d view(s)", v, len(s.queries))
	}
	charts, err := s.relCharts()
	if err != nil {
		return nil, err
	}
	return charts[v], nil
}

// CurrentVisAll returns every registered view's chart, in registration
// order, over one shared cleaned relation. The slice is the caller's.
func (s *Session) CurrentVisAll() ([]*vis.Data, error) {
	charts, err := s.relCharts()
	if err != nil {
		return nil, err
	}
	return append([]*vis.Data(nil), charts...), nil
}

// DistToTruth reports the current distance to the ground-truth
// visualization (0 if none configured).
func (s *Session) DistToTruth() (float64, error) {
	if s.cfg.TruthVis == nil {
		return 0, nil
	}
	cur, err := s.CurrentVis()
	if err != nil {
		return 0, err
	}
	return s.cfg.Dist(cur, s.cfg.TruthVis), nil
}
