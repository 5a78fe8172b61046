package rf

import (
	"fmt"
	"math/rand"

	"visclean/internal/par"
)

// Config holds the forest hyperparameters. The zero value is unusable;
// start from DefaultConfig.
type Config struct {
	NumTrees    int     // bagged trees
	MaxDepth    int     // maximum tree depth
	MinLeaf     int     // minimum samples per leaf
	FeatureFrac float64 // fraction of features considered per split
	Seed        int64   // RNG seed; training is deterministic given it
	// Workers bounds the per-tree training fan-out: < 1 selects
	// GOMAXPROCS, 1 trains sequentially. The forest is identical for
	// every worker count — each tree draws from its own RNG seeded by
	// treeSeed(Seed, t), not from a stream shared across trees.
	Workers int
}

// DefaultConfig returns the hyperparameters used throughout VisClean.
// Entity-matching feature vectors are short (one similarity per
// attribute), so modest trees generalize well and retrain fast — which
// matters because the pipeline retrains after every iteration (Fig 18
// attributes most machine time to Train Models).
func DefaultConfig() Config {
	return Config{NumTrees: 48, MaxDepth: 6, MinLeaf: 3, FeatureFrac: 0.7, Seed: 1}
}

// Forest is a trained random forest.
type Forest struct {
	trees    []*node
	features int
}

// Train fits a forest on feature matrix x and binary labels y (0 or 1).
// Every row of x must have the same length. It returns an error on empty
// or malformed input; single-class training sets are allowed (the forest
// then predicts that class's frequency, i.e. 0 or 1).
func Train(x [][]float64, y []int, cfg Config) (*Forest, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("rf: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("rf: %d rows but %d labels", len(x), len(y))
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, fmt.Errorf("rf: rows have no features")
	}
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("rf: label %d at row %d is not binary", label, i)
		}
	}
	if cfg.NumTrees < 1 || cfg.MaxDepth < 1 || cfg.MinLeaf < 1 {
		return nil, fmt.Errorf("rf: invalid config %+v", cfg)
	}

	tc := treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, featureFrac: cfg.FeatureFrac}
	f := &Forest{features: nf, trees: make([]*node, cfg.NumTrees)}
	n := len(x)
	// Per-tree RNGs let the independent tree builds fan out across
	// workers while keeping the forest a pure function of cfg.Seed: tree
	// t writes only f.trees[t] (the index-write rule), and its random
	// stream never depends on which goroutine built the other trees.
	par.ForEachIndex(cfg.Workers, cfg.NumTrees, func(t int) {
		rng := rand.New(rand.NewSource(treeSeed(cfg.Seed, t)))
		// Bootstrap sample with replacement.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees[t] = buildTree(x, y, idx, 0, tc, rng)
	})
	return f, nil
}

// treeSeed derives tree t's RNG seed from the forest seed with a
// splitmix64 finalizer, so neighbouring (seed, t) inputs yield
// decorrelated streams — naive seed+t offsets make tree t of seed s
// share a bootstrap with tree t-1 of seed s+1.
func treeSeed(seed int64, t int) int64 {
	z := uint64(seed) + uint64(t+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// PredictProba returns the forest's estimate of P(label == 1): the mean
// of the leaf probabilities across trees, always in [0, 1].
func (f *Forest) PredictProba(x []float64) float64 {
	if len(x) != f.features {
		panic(fmt.Sprintf("rf: predict with %d features, trained on %d", len(x), f.features))
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.predict(x)
	}
	return sum / float64(len(f.trees))
}

// NumNodes reports the total node count across all trees, which sizes a
// forest for the artifact cache's byte accounting.
func (f *Forest) NumNodes() int {
	n := 0
	for _, t := range f.trees {
		n += t.count()
	}
	return n
}
