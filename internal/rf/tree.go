// Package rf implements a random forest binary classifier from scratch:
// CART decision trees split on Gini impurity, trained on bootstrap
// samples with per-split feature subsampling. VisClean uses it as the
// entity-matching model (§IV), following the paper's choice of random
// forests [19]; predicted match probabilities are the P^Y terms of the
// benefit model (Eq. 6) and the edge weights of the ERG.
package rf

import (
	"math"
	"math/rand"
	"sort"
)

// node is one CART tree node. Leaves carry the positive-class fraction.
type node struct {
	feature   int     // split feature; -1 for leaves
	threshold float64 // go left when x[feature] <= threshold
	left      *node
	right     *node
	prob      float64 // leaf: P(label == 1)
}

// treeConfig bundles the per-tree hyperparameters.
type treeConfig struct {
	maxDepth    int
	minLeaf     int
	featureFrac float64
}

// buildTree grows a CART tree on the rows indexed by idx.
func buildTree(x [][]float64, y []int, idx []int, depth int, cfg treeConfig, rng *rand.Rand) *node {
	pos := 0
	for _, i := range idx {
		pos += y[i]
	}
	prob := float64(pos) / float64(len(idx))
	if depth >= cfg.maxDepth || len(idx) < 2*cfg.minLeaf || pos == 0 || pos == len(idx) {
		return &node{feature: -1, prob: prob}
	}

	feat, thr, ok := bestSplit(x, y, idx, cfg, rng)
	if !ok {
		return &node{feature: -1, prob: prob}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.minLeaf || len(right) < cfg.minLeaf {
		return &node{feature: -1, prob: prob}
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      buildTree(x, y, left, depth+1, cfg, rng),
		right:     buildTree(x, y, right, depth+1, cfg, rng),
	}
}

// bestSplit scans a random feature subset for the split minimizing the
// weighted Gini impurity of the children.
func bestSplit(x [][]float64, y []int, idx []int, cfg treeConfig, rng *rand.Rand) (feat int, thr float64, ok bool) {
	nf := len(x[idx[0]])
	sub := int(math.Ceil(cfg.featureFrac * float64(nf)))
	if sub < 1 {
		sub = 1
	}
	if sub > nf {
		sub = nf
	}
	feats := rng.Perm(nf)[:sub]

	bestGini := math.Inf(1)
	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, len(idx))
	for _, f := range feats {
		for k, i := range idx {
			vals[k] = fv{v: x[i][f], y: y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })

		totalPos := 0
		for _, e := range vals {
			totalPos += e.y
		}
		leftPos, leftN := 0, 0
		n := len(vals)
		for k := 0; k+1 < n; k++ {
			leftPos += vals[k].y
			leftN++
			if vals[k].v == vals[k+1].v {
				continue // can't split between equal values
			}
			rightPos := totalPos - leftPos
			rightN := n - leftN
			g := (gini(leftPos, leftN)*float64(leftN) + gini(rightPos, rightN)*float64(rightN)) / float64(n)
			if g < bestGini {
				bestGini = g
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// predict walks the tree to a leaf probability.
func (nd *node) predict(x []float64) float64 {
	for nd.feature >= 0 {
		if x[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.prob
}

// count returns the number of nodes in the subtree.
func (nd *node) count() int {
	if nd.feature < 0 {
		return 1
	}
	return 1 + nd.left.count() + nd.right.count()
}
