// Package onnx implements a model-graph intermediate representation and an
// optimizing runtime in the spirit of ONNX + ONNX Runtime: trained pipelines
// are exported into a graph of featurizer and model operators, the graph is
// serializable (models as data!), and a Session executes it over columnar
// batches with pre-planned buffers.
//
// The same Session code runs standalone (the Figure-4 "ORT" configuration,
// behind the remote-scoring pipe in remote.go) and embedded inside the query
// engine (the "SONNX" configuration), which is exactly the property the
// paper's comparison relies on.
package onnx

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ml"
)

// ColumnKind mirrors ml.ColKind for graph input typing.
type ColumnKind = ml.ColKind

// OpType enumerates the graph operators.
type OpType int

// Graph operators. The featurizer ops (Scaler, OneHot, HashText) each
// consume one input column and produce a block of dense features; the model
// ops consume the concatenated feature matrix and produce the output vector.
const (
	OpScaler OpType = iota
	OpOneHot
	OpHashText
	OpLinear       // w·x + b, optional sigmoid
	OpTreeEnsemble // base + rate * sum(trees), optional sigmoid
)

func (o OpType) String() string {
	switch o {
	case OpScaler:
		return "Scaler"
	case OpOneHot:
		return "OneHotEncoder"
	case OpHashText:
		return "HashingVectorizer"
	case OpLinear:
		return "LinearModel"
	case OpTreeEnsemble:
		return "TreeEnsemble"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Tree is a flattened decision tree (same layout as ml.DecisionTree).
type Tree struct {
	Feature   []int32
	Threshold []float64
	Left      []int32 // -1 marks a leaf
	Right     []int32
	Value     []float64
}

// FeatNode is one featurization operator bound to an input column.
type FeatNode struct {
	Op     OpType
	Input  string // input column name
	Offset int    // first output feature index (assigned by Relayout)

	// Scaler parameters.
	Mean, Scale float64
	// OneHot parameters.
	Categories []string
	// HashText parameters.
	Buckets int
}

// Width returns the number of features the node emits.
func (n *FeatNode) Width() int {
	switch n.Op {
	case OpScaler:
		return 1
	case OpOneHot:
		return len(n.Categories)
	case OpHashText:
		return n.Buckets
	default:
		return 0
	}
}

// ModelNode is the final scoring operator over the feature matrix.
type ModelNode struct {
	Op OpType

	// Linear parameters.
	Coeff     []float64
	Intercept float64

	// TreeEnsemble parameters.
	Trees []Tree
	Base  float64
	Rate  float64

	// PostSigmoid applies the logistic squash to the raw score
	// (classifier probability output).
	PostSigmoid bool
}

// InputSpec declares one graph input column.
type InputSpec struct {
	Name string
	Kind ColumnKind
}

// Graph is a complete inference pipeline: typed input columns, featurizer
// nodes, and a single model node producing the named output.
type Graph struct {
	Name   string
	Inputs []InputSpec
	Feats  []FeatNode
	Model  ModelNode
	Output string // output column name, e.g. "score"

	// fp memoizes Fingerprint. Unexported, so gob never ships it, and
	// deliberately not carried over by Clone.
	fp atomic.Uint64
}

// Width returns the total feature-matrix width.
func (g *Graph) Width() int {
	var w int
	for i := range g.Feats {
		w += g.Feats[i].Width()
	}
	return w
}

// Relayout assigns feature offsets after any structural change.
func (g *Graph) Relayout() {
	off := 0
	for i := range g.Feats {
		g.Feats[i].Offset = off
		off += g.Feats[i].Width()
	}
}

// InputNames returns the input column names in declaration order.
func (g *Graph) InputNames() []string {
	names := make([]string, len(g.Inputs))
	for i, in := range g.Inputs {
		names[i] = in.Name
	}
	return names
}

// inputKind looks up the declared kind for a column.
func (g *Graph) inputKind(name string) (ColumnKind, bool) {
	for _, in := range g.Inputs {
		if in.Name == name {
			return in.Kind, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: every featurizer input is declared,
// kinds match operators, offsets are consistent, the model covers the full
// width, and every tree is one the scorer can walk: at least one node,
// both children of an internal node in range, and no node reached twice.
func (g *Graph) Validate() error {
	if g.Output == "" {
		return errors.New("onnx: graph has no output name")
	}
	off := 0
	for i := range g.Feats {
		n := &g.Feats[i]
		kind, ok := g.inputKind(n.Input)
		if !ok {
			return fmt.Errorf("onnx: featurizer %d reads undeclared input %q", i, n.Input)
		}
		var want ColumnKind
		switch n.Op {
		case OpScaler:
			want = ml.KindNumeric
		case OpOneHot:
			want = ml.KindCategorical
		case OpHashText:
			want = ml.KindText
		default:
			return fmt.Errorf("onnx: node %d: %v is not a featurizer op", i, n.Op)
		}
		if kind != want {
			return fmt.Errorf("onnx: featurizer %d (%v) over %v column %q", i, n.Op, kind, n.Input)
		}
		if n.Op == OpHashText && n.Buckets < 1 {
			return fmt.Errorf("onnx: featurizer %d hashes text into %d buckets", i, n.Buckets)
		}
		if n.Offset != off {
			return fmt.Errorf("onnx: featurizer %d offset %d, want %d (run Relayout)", i, n.Offset, off)
		}
		off += n.Width()
	}
	switch g.Model.Op {
	case OpLinear:
		if len(g.Model.Coeff) != off {
			return fmt.Errorf("onnx: linear model has %d coefficients over width-%d features", len(g.Model.Coeff), off)
		}
	case OpTreeEnsemble:
		maxNodes := 0
		for _, tr := range g.Model.Trees {
			maxNodes = max(maxNodes, len(tr.Feature))
		}
		// A walk that pops k nodes holds at most k+1 on its stack.
		reached := make([]bool, maxNodes)
		stack := make([]int32, 0, maxNodes+1)
		for ti, tr := range g.Model.Trees {
			n := len(tr.Feature)
			if len(tr.Threshold) != n || len(tr.Left) != n || len(tr.Right) != n || len(tr.Value) != n {
				return fmt.Errorf("onnx: tree %d has ragged arrays", ti)
			}
			if n == 0 {
				return fmt.Errorf("onnx: tree %d has no nodes", ti)
			}
			for j := 0; j < n; j++ {
				if tr.Left[j] >= 0 {
					if int(tr.Left[j]) >= n || tr.Right[j] < 0 || int(tr.Right[j]) >= n {
						return fmt.Errorf("onnx: tree %d node %d child out of range", ti, j)
					}
					if int(tr.Feature[j]) >= off || tr.Feature[j] < 0 {
						return fmt.Errorf("onnx: tree %d node %d tests feature %d over width-%d features", ti, j, tr.Feature[j], off)
					}
				}
			}
			// The walk from the root must reach every node at most once:
			// no cycle, no shared subtree. The scorer's packed layout
			// (ensemble.go) gives each reached node exactly one slot.
			clear(reached[:n])
			stack = append(stack[:0], 0)
			for len(stack) > 0 {
				j := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reached[j] {
					return fmt.Errorf("onnx: tree %d node %d is reached twice", ti, j)
				}
				reached[j] = true
				if tr.Left[j] >= 0 {
					stack = append(stack, tr.Right[j], tr.Left[j])
				}
			}
		}
	default:
		return fmt.Errorf("onnx: %v is not a model op", g.Model.Op)
	}
	return nil
}

// UsedFeatures returns the sorted set of feature indices the model actually
// reads (non-zero linear coefficients, or features tested by any tree).
func (g *Graph) UsedFeatures() []int {
	switch g.Model.Op {
	case OpLinear:
		var used []int
		for i, c := range g.Model.Coeff {
			if c != 0 {
				used = append(used, i)
			}
		}
		return used
	case OpTreeEnsemble:
		seen := make([]bool, g.Width())
		for _, tr := range g.Model.Trees {
			for j := range tr.Feature {
				if tr.Left[j] >= 0 {
					seen[tr.Feature[j]] = true
				}
			}
		}
		var used []int
		for f, ok := range seen {
			if ok {
				used = append(used, f)
			}
		}
		return used
	default:
		return nil
	}
}

// Clone returns a deep copy of the graph, so transformations never alias
// the deployed original (models are immutable derived data).
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, Output: g.Output}
	c.Inputs = append([]InputSpec(nil), g.Inputs...)
	c.Feats = make([]FeatNode, len(g.Feats))
	for i, n := range g.Feats {
		n.Categories = append([]string(nil), n.Categories...)
		c.Feats[i] = n
	}
	m := g.Model
	m.Coeff = append([]float64(nil), m.Coeff...)
	m.Trees = make([]Tree, len(g.Model.Trees))
	for i, tr := range g.Model.Trees {
		m.Trees[i] = Tree{
			Feature:   append([]int32(nil), tr.Feature...),
			Threshold: append([]float64(nil), tr.Threshold...),
			Left:      append([]int32(nil), tr.Left...),
			Right:     append([]int32(nil), tr.Right...),
			Value:     append([]float64(nil), tr.Value...),
		}
	}
	c.Model = m
	return c
}

// NumNodes returns the operator count (featurizers + model); a rough model
// size proxy used in registry listings.
func (g *Graph) NumNodes() int { return len(g.Feats) + 1 }
