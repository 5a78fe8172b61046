package datagen

import (
	"math"
	"strings"
	"testing"

	"visclean/internal/dataset"
)

const testScale = 0.02

func TestD1Shape(t *testing.T) {
	d := D1(Config{Scale: testScale, Seed: 1})
	s := d.Stats()
	if s.Attributes != 6 {
		t.Fatalf("attributes = %d, want 6", s.Attributes)
	}
	wantEntities := int(math.Round(13915 * testScale))
	if math.Abs(float64(s.DistinctTuples-wantEntities)) > float64(wantEntities)/5 {
		t.Fatalf("entities = %d, want ≈ %d", s.DistinctTuples, wantEntities)
	}
	// Duplication factor ≈ 3.63.
	ratio := float64(s.Tuples) / float64(s.DistinctTuples)
	if ratio < 3.0 || ratio > 4.3 {
		t.Fatalf("duplication ratio = %v, want ≈ 3.63", ratio)
	}
	if math.Abs(s.MissingRate-0.151) > 0.04 {
		t.Fatalf("missing rate = %v, want ≈ 0.151", s.MissingRate)
	}
	if s.OutlierRate <= 0 || s.OutlierRate > 0.03 {
		t.Fatalf("outlier rate = %v, want ≈ 0.011", s.OutlierRate)
	}
}

func TestD2Shape(t *testing.T) {
	d := D2(Config{Scale: testScale, Seed: 1})
	s := d.Stats()
	if s.Attributes != 17 {
		t.Fatalf("attributes = %d, want 17", s.Attributes)
	}
	ratio := float64(s.Tuples) / float64(s.DistinctTuples)
	if ratio < 2.4 || ratio > 3.4 {
		t.Fatalf("duplication ratio = %v, want ≈ 2.9", ratio)
	}
	if math.Abs(s.MissingRate-0.082) > 0.03 {
		t.Fatalf("missing rate = %v, want ≈ 0.082", s.MissingRate)
	}
}

func TestD3Shape(t *testing.T) {
	d := D3(Config{Scale: testScale, Seed: 1})
	s := d.Stats()
	if s.Attributes != 17 {
		t.Fatalf("attributes = %d, want 17", s.Attributes)
	}
	ratio := float64(s.Tuples) / float64(s.DistinctTuples)
	if ratio < 1.7 || ratio > 2.5 {
		t.Fatalf("duplication ratio = %v, want ≈ 2.07", ratio)
	}
	if math.Abs(s.MissingRate-0.092) > 0.035 {
		t.Fatalf("missing rate = %v, want ≈ 0.092", s.MissingRate)
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := D1(Config{Scale: 0.01, Seed: 7})
	b := D1(Config{Scale: 0.01, Seed: 7})
	if a.Dirty.NumRows() != b.Dirty.NumRows() {
		t.Fatal("row counts differ for same seed")
	}
	for i := 0; i < a.Dirty.NumRows(); i++ {
		for c := 0; c < a.Dirty.NumCols(); c++ {
			if !a.Dirty.Get(i, c).Equal(b.Dirty.Get(i, c)) {
				t.Fatalf("cell (%d,%d) differs for same seed", i, c)
			}
		}
	}
	c := D1(Config{Scale: 0.01, Seed: 8})
	if c.Dirty.NumRows() == a.Dirty.NumRows() {
		// Same size is possible; compare some content.
		same := true
		for i := 0; i < a.Dirty.NumRows() && same; i++ {
			same = a.Dirty.Get(i, 0).Equal(c.Dirty.Get(i, 0))
		}
		if same {
			t.Fatal("different seeds produced identical data")
		}
	}
}

// TestByName: each name generates its own dataset, an unknown name is
// an error that names the valid ones, and so is a scale that is not > 0.
func TestByName(t *testing.T) {
	cfg := Config{Scale: 0.005, Seed: 3}
	for name, gen := range map[string]func(Config) *Dataset{"D1": D1, "D2": D2, "D3": D3} {
		got, err := ByName(name, cfg)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		want := gen(cfg)
		if got.Dirty.Fingerprint() != want.Dirty.Fingerprint() || got.Truth.Clean.Fingerprint() != want.Truth.Clean.Fingerprint() {
			t.Errorf("ByName(%q) does not generate %s's tables", name, name)
		}
	}
	if _, err := ByName("D4", cfg); err == nil || !strings.Contains(err.Error(), "D1, D2 or D3") {
		t.Fatalf("ByName(\"D4\") error = %v, want one naming D1, D2 or D3", err)
	}
	for _, scale := range []float64{-1, 0, math.NaN()} {
		if d, err := ByName("D3", Config{Scale: scale, Seed: 3}); err == nil || !strings.Contains(err.Error(), "not > 0") {
			t.Errorf("ByName(\"D3\", scale %v) = %v, %v; want a scale error", scale, d != nil, err)
		}
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	for _, d := range []*Dataset{
		D1(Config{Scale: 0.01, Seed: 3}),
		D2(Config{Scale: 0.01, Seed: 3}),
		D3(Config{Scale: 0.01, Seed: 3}),
	} {
		// Every dirty tuple has an entity and a recorded true Y for each
		// measure column.
		for i := 0; i < d.Dirty.NumRows(); i++ {
			id := d.Dirty.ID(i)
			if _, ok := d.Truth.Entity[id]; !ok {
				t.Fatalf("%s: tuple %d has no entity", d.Name, id)
			}
			for _, mc := range d.MeasureColumns {
				if _, ok := d.Truth.TrueValue(mc, id); !ok {
					t.Fatalf("%s: tuple %d has no true %s", d.Name, id, mc)
				}
			}
		}
		// Clean table has one row per entity.
		ents := map[int]struct{}{}
		for _, e := range d.Truth.Entity {
			ents[e] = struct{}{}
		}
		if d.Truth.Clean.NumRows() != len(ents) {
			t.Fatalf("%s: clean rows %d != entities %d", d.Name, d.Truth.Clean.NumRows(), len(ents))
		}
		// Canonicalization is idempotent and hits pool canons.
		for col, m := range d.Truth.Canonical {
			for variant, canon := range m {
				if got := d.Truth.CanonicalValue(col, variant); got != canon {
					t.Fatalf("%s: canonical(%s,%q) = %q, want %q", d.Name, col, variant, got, canon)
				}
				if got := d.Truth.CanonicalValue(col, canon); got != canon {
					t.Fatalf("%s: canonical not idempotent for %q", d.Name, canon)
				}
			}
		}
	}
}

func TestD1DirtyVenuesCanonicalize(t *testing.T) {
	d := D1(Config{Scale: 0.01, Seed: 5})
	venue := d.Dirty.ColumnIndex("Venue")
	unknown := 0
	for v := range d.Dirty.DistinctStrings(venue) {
		canon := d.Truth.CanonicalValue("Venue", v)
		if _, ok := venuePool[canon]; !ok {
			unknown++
		}
	}
	if unknown > 0 {
		t.Fatalf("%d dirty venue values do not canonicalize into the pool", unknown)
	}
}

func TestTrueEntityDuplicatesShareEntity(t *testing.T) {
	d := D1(Config{Scale: 0.01, Seed: 6})
	// Group dirty tuples by entity; every group's true Y must agree.
	byEntity := map[int][]dataset.TupleID{}
	for id, e := range d.Truth.Entity {
		byEntity[e] = append(byEntity[e], id)
	}
	multi := 0
	for _, ids := range byEntity {
		if len(ids) < 2 {
			continue
		}
		multi++
		first, _ := d.Truth.TrueValue("Citations", ids[0])
		for _, id := range ids[1:] {
			v, _ := d.Truth.TrueValue("Citations", id)
			if v != first {
				t.Fatalf("entity with inconsistent true Y: %v vs %v", first, v)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no duplicated entities generated")
	}
}

func TestSyntheticERG(t *testing.T) {
	g := SyntheticERG(500, 42)
	if g.NumEdges() != 500 {
		t.Fatalf("edges = %d, want 500", g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.Benefit <= 0 || e.Benefit >= 1 {
			t.Fatalf("edge weight %v out of (0,1)", e.Benefit)
		}
		if !e.HasT || e.PT != e.Benefit {
			t.Fatalf("edge payload wrong: %+v", e)
		}
	}
	// Deterministic.
	g2 := SyntheticERG(500, 42)
	if g2.Edge(0).Benefit != g.Edge(0).Benefit {
		t.Fatal("synthetic ERG not deterministic")
	}
}
