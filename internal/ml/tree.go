package ml

import (
	"errors"
	"fmt"
	"sort"
)

// TreeNode is one node of a CART tree in flattened array form. Leaves have
// Left == -1 and carry Value; internal nodes route rows with
// feature < Threshold to Left and the rest to Right.
type TreeNode struct {
	Feature   int32
	Threshold float64
	Left      int32 // -1 for leaves
	Right     int32
	Value     float64
}

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Left < 0 }

// DecisionTree is a CART regression tree (variance-reduction splits). It is
// the building block of GradientBoosting and can be used standalone; for
// binary classification, fit it on 0/1 labels and read the leaf value as a
// probability estimate.
type DecisionTree struct {
	// MaxDepth defaults to 6, MinLeaf (minimum samples per leaf) to 1,
	// MaxFeatures to all features when zero.
	MaxDepth int
	MinLeaf  int

	Nodes []TreeNode
}

type treeBuilder struct {
	x        *Matrix
	y        []float64
	maxDepth int
	minLeaf  int
	nodes    []TreeNode
}

// Fit grows the tree on x, y.
func (t *DecisionTree) Fit(x *Matrix, y []float64) error {
	if x.Rows != len(y) {
		return fmt.Errorf("ml: DecisionTree.Fit: %d rows but %d targets", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("ml: DecisionTree.Fit: empty training set")
	}
	maxDepth := t.MaxDepth
	if maxDepth == 0 {
		maxDepth = 6
	}
	minLeaf := t.MinLeaf
	if minLeaf == 0 {
		minLeaf = 1
	}
	b := &treeBuilder{x: x, y: y, maxDepth: maxDepth, minLeaf: minLeaf}
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	b.build(idx, 0)
	t.Nodes = b.nodes
	return nil
}

// build grows a subtree over the rows in idx and returns its node index.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	node := int32(len(b.nodes))
	b.nodes = append(b.nodes, TreeNode{Left: -1, Right: -1})

	var sum float64
	for _, i := range idx {
		sum += b.y[i]
	}
	mean := sum / float64(len(idx))
	b.nodes[node].Value = mean

	if depth >= b.maxDepth || len(idx) < 2*b.minLeaf {
		return node
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		return node
	}
	// Partition idx in place.
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.x.At(idx[lo], feat) < thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo < b.minLeaf || len(idx)-lo < b.minLeaf {
		return node
	}
	left := b.build(idx[:lo], depth+1)
	right := b.build(idx[lo:], depth+1)
	b.nodes[node].Feature = int32(feat)
	b.nodes[node].Threshold = thr
	b.nodes[node].Left = left
	b.nodes[node].Right = right
	return node
}

// bestSplit finds the (feature, threshold) pair maximizing variance
// reduction via a sorted sweep per feature.
func (b *treeBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	n := len(idx)
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += b.y[i]
		totalSq += b.y[i] * b.y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)
	bestGain := 1e-12

	order := make([]int, n)
	for f := 0; f < b.x.Cols; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, c int) bool {
			return b.x.At(order[a], f) < b.x.At(order[c], f)
		})
		var leftSum, leftSq float64
		for k := 0; k < n-1; k++ {
			yv := b.y[order[k]]
			leftSum += yv
			leftSq += yv * yv
			nl := k + 1
			if nl < b.minLeaf || n-nl < b.minLeaf {
				continue
			}
			cur, next := b.x.At(order[k], f), b.x.At(order[k+1], f)
			if cur == next {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(n-nl))
			gain := parentSSE - sse
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (cur + next) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// PredictInto writes one prediction per row of x into out. The tree walk is
// inlined batch-style — the node array and matrix data stay in registers
// across the whole batch instead of paying a PredictRow call per row — and
// produces bit-identical results to the per-row walk.
func (t *DecisionTree) PredictInto(x *Matrix, out []float64) {
	nodes := t.Nodes
	data, cols := x.Data, x.Cols
	for i := 0; i < x.Rows; i++ {
		base := i * cols
		n := int32(0)
		for {
			nd := &nodes[n]
			if nd.Left < 0 {
				out[i] = nd.Value
				break
			}
			if data[base+int(nd.Feature)] < nd.Threshold {
				n = nd.Left
			} else {
				n = nd.Right
			}
		}
	}
}

// PredictRow routes a single feature vector to its leaf value.
func (t *DecisionTree) PredictRow(row []float64) float64 {
	n := int32(0)
	for {
		node := &t.Nodes[n]
		if node.IsLeaf() {
			return node.Value
		}
		if row[node.Feature] < node.Threshold {
			n = node.Left
		} else {
			n = node.Right
		}
	}
}

// depth returns the maximum depth of the fitted tree (0 for a single leaf).
func (t *DecisionTree) depth() int {
	var walk func(n int32) int
	walk = func(n int32) int {
		node := &t.Nodes[n]
		if node.IsLeaf() {
			return 0
		}
		l, r := walk(node.Left), walk(node.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0)
}

// UsedFeatures returns the sorted set of feature indices the tree actually
// tests. The cross-optimizer uses this for model-sparsity input pruning.
func (t *DecisionTree) UsedFeatures() []int {
	seen := map[int]bool{}
	for i := range t.Nodes {
		if !t.Nodes[i].IsLeaf() {
			seen[int(t.Nodes[i].Feature)] = true
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}
