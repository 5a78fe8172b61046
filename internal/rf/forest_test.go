package rf

import (
	"math/rand"
	"testing"
)

// linearlySeparable builds a 2-D dataset where class 1 iff x0+x1 > 1.
func linearlySeparable(rng *rand.Rand, n int) (x [][]float64, y []int) {
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return x, y
}

func TestTrainValidation(t *testing.T) {
	cases := []struct {
		x   [][]float64
		y   []int
		cfg Config
	}{
		{nil, nil, DefaultConfig()},
		{[][]float64{{1}}, []int{0, 1}, DefaultConfig()},
		{[][]float64{{}}, []int{0}, DefaultConfig()},
		{[][]float64{{1}, {1, 2}}, []int{0, 1}, DefaultConfig()},
		{[][]float64{{1}}, []int{2}, DefaultConfig()},
		{[][]float64{{1}}, []int{0}, Config{}},
	}
	for i, c := range cases {
		if _, err := Train(c.x, c.y, c.cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLearnsSeparableFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := linearlySeparable(rng, 400)
	f, err := Train(x, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	tests, wants := linearlySeparable(rng, 200)
	for i := range tests {
		if (f.PredictProba(tests[i]) >= 0.5) == (wants[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.9 {
		t.Fatalf("accuracy = %v, want >= 0.9", acc)
	}
}

func TestProbaInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := linearlySeparable(rng, 100)
	f, err := Train(x, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := f.PredictProba([]float64{rng.Float64() * 2, rng.Float64() * 2})
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := linearlySeparable(rng, 150)
	f1, _ := Train(x, y, DefaultConfig())
	f2, _ := Train(x, y, DefaultConfig())
	for i := 0; i < 50; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		if f1.PredictProba(p) != f2.PredictProba(p) {
			t.Fatal("same seed produced different forests")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 999
	f3, _ := Train(x, y, cfg)
	diff := false
	for i := 0; i < 50 && !diff; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		diff = f1.PredictProba(p) != f3.PredictProba(p)
	}
	if !diff {
		t.Log("warning: different seeds produced identical predictions (possible but unlikely)")
	}
}

func TestSingleClassTraining(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	f, err := Train(x, []int{1, 1, 1}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := f.PredictProba([]float64{5}); p != 1 {
		t.Fatalf("all-positive forest predicts %v", p)
	}
	f0, err := Train(x, []int{0, 0, 0}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := f0.PredictProba([]float64{5}); p != 0 {
		t.Fatalf("all-negative forest predicts %v", p)
	}
}

func TestConstantFeatures(t *testing.T) {
	// No valid split exists; must not loop or panic.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	f, err := Train(x, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := f.PredictProba([]float64{1, 1}); p < 0.2 || p > 0.8 {
		t.Fatalf("constant-feature prediction %v, want near 0.5", p)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := linearlySeparable(rng, 300)
	cfg := DefaultConfig()
	cfg.MaxDepth = 3
	f, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// height counts nodes on the longest path; MaxDepth bounds split
	// depth.
	var height func(nd *node) int
	height = func(nd *node) int {
		if nd.feature < 0 {
			return 1
		}
		return 1 + max(height(nd.left), height(nd.right))
	}
	for _, tr := range f.trees {
		if d := height(tr); d > cfg.MaxDepth+1 {
			t.Fatalf("tree depth %d exceeds configured max %d", d, cfg.MaxDepth)
		}
	}
	if len(f.trees) != cfg.NumTrees {
		t.Fatalf("trees = %d", len(f.trees))
	}
}

func TestPredictPanicsOnWrongWidth(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}}
	f, err := Train(x, []int{0, 1}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.PredictProba([]float64{1})
}

func TestTrainWorkerCountInvariance(t *testing.T) {
	// The forest is a pure function of cfg.Seed: per-tree RNGs mean the
	// worker count (and hence goroutine scheduling) must not change a
	// single prediction.
	rng := rand.New(rand.NewSource(5))
	x, y := linearlySeparable(rng, 300)
	probes, _ := linearlySeparable(rng, 100)
	var ref []float64
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		f, err := Train(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		preds := make([]float64, len(probes))
		for i, p := range probes {
			preds[i] = f.PredictProba(p)
		}
		if ref == nil {
			ref = preds
			continue
		}
		for i := range preds {
			if preds[i] != ref[i] {
				t.Fatalf("workers=%d: probe %d predicts %v, workers=1 predicted %v", workers, i, preds[i], ref[i])
			}
		}
	}
}

func TestTreeSeedDecorrelated(t *testing.T) {
	// Naive seed+t offsets make tree t of seed s equal tree t-1 of seed
	// s+1; the splitmix64 mix must not.
	if treeSeed(1, 1) == treeSeed(2, 0) {
		t.Fatal("treeSeed(1,1) == treeSeed(2,0): adjacent forests share tree streams")
	}
	seen := map[int64]bool{}
	for s := int64(0); s < 8; s++ {
		for tr := 0; tr < 8; tr++ {
			v := treeSeed(s, tr)
			if seen[v] {
				t.Fatalf("duplicate tree seed %d at (%d,%d)", v, s, tr)
			}
			seen[v] = true
		}
	}
}

func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := linearlySeparable(rng, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, y := linearlySeparable(rng, 500)
	f, _ := Train(x, y, DefaultConfig())
	p := []float64{0.4, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProba(p)
	}
}
