package pipeline

import (
	"fmt"

	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/vis"
	"visclean/internal/vql"
)

// committedRel is the session's committed cleaned relation: the entity
// partition, each cluster's consolidated row, and every view over those
// rows. It is a pure function of the clusters, the standardizers, the
// working table and the view list, so the session drops it whenever one
// of them changes (logAnswer, refreshModel, rebuildStandardizers) and
// rebuilds it on the next read. Within an iteration that makes one
// build serve the after charts, the service's cached state, the
// distance to truth, the next iteration's before charts and the delta
// pricer's base rows, executors and baselines.
//
// Each part fills on first use. A pristine session takes its executors
// from the basevis artifacts, so on a warm cache it builds rows only
// when the pricer first needs them.
type committedRel struct {
	groups [][]dataset.TupleID // clusters.Groups(1)
	rows   [][]dataset.Value   // rows[gi]: group gi's view row, nil when it yields none; nil until built
	views  []committedView     // per view, registration order; nil until built
}

// committedView is one view over the committed rows: the incremental
// executor registered over them, the view's chart, which is that
// executor's base, and the chart's distance.Default baseline.
// The delta pricer evaluates every hypothesis through exec and prices
// it against base.
type committedView struct {
	exec  *vql.Incremental
	chart *vis.Data
	base  *distance.Baseline
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

// relViews returns every view of the committed relation, registering
// each view's executor over the committed rows, each ranked by its
// cluster's smallest tuple id. A pristine session takes its executors
// from the basevis artifacts instead. The slice is the relation's own:
// callers that hand it out must copy it.
func (s *Session) relViews() ([]committedView, error) {
	r := s.relation()
	if r.views != nil {
		return r.views, nil
	}
	var rows []vql.IncRow
	incRows := func() []vql.IncRow {
		if rows == nil {
			rel := s.relRows()
			rows = make([]vql.IncRow, 0, len(rel.groups))
			for gi, g := range rel.groups {
				if rel.rows[gi] != nil {
					rows = append(rows, vql.IncRow{Rank: int64(g[0]), Vals: rel.rows[gi]})
				}
			}
		}
		return rows
	}
	pristine := s.pristine()
	views := make([]committedView, len(s.queries))
	for v, q := range s.queries {
		var exec *vql.Incremental
		var err error
		if pristine {
			exec, err = s.pristineExec(q, incRows)
		} else {
			exec, err = q.NewIncremental(s.table.Schema(), incRows())
		}
		if err != nil {
			return nil, err
		}
		chart := exec.Base()
		views[v] = committedView{exec: exec, chart: chart, base: distance.NewBaseline(chart)}
	}
	r.views = views
	return views, nil
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
	views, err := s.relViews()
	if err != nil {
		return nil, err
	}
	return views[v].chart, nil
}

// CurrentVisAll returns every registered view's chart, in registration
// order, over one shared cleaned relation. The slice is the caller's.
func (s *Session) CurrentVisAll() ([]*vis.Data, error) {
	views, err := s.relViews()
	if err != nil {
		return nil, err
	}
	charts := make([]*vis.Data, len(views))
	for v, cv := range views {
		charts[v] = cv.chart
	}
	return charts, nil
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
	return distance.Default(cur, s.cfg.TruthVis), nil
}
