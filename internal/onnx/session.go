package onnx

import (
	"fmt"
	"sync"

	"repro/internal/ml"
)

// Column is one columnar input to a Session: numeric columns use Nums,
// categorical and text columns use Strs.
type Column struct {
	Nums []float64
	Strs []string
}

// Batch is a columnar slice of rows to score. Cols must align with the
// graph's Inputs declaration.
type Batch struct {
	Cols []Column
	N    int
}

// Session is a planned, reusable executor for one Graph. It precomputes
// per-node dispatch (category indices, offsets) at construction so Run does
// no per-call planning — the "compile into highly optimized code" step.
// Sessions are safe for concurrent use by multiple goroutines.
type Session struct {
	graph  *Graph
	width  int
	onehot []map[string]int // per featurizer node; nil for non-onehot
	pool   sync.Pool        // scratch feature buffers

	// packed is the tree ensemble in the scoring kernel's layout, built
	// by the first tree-ensemble score rather than in NewSession: the
	// engine opens a Session per query, and one the inference plane
	// serves never scores.
	packOnce sync.Once
	packed   []node
}

// NewSession validates and plans the graph.
func NewSession(g *Graph) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &Session{graph: g, width: g.Width()}
	s.onehot = make([]map[string]int, len(g.Feats))
	for i := range g.Feats {
		if g.Feats[i].Op == OpOneHot {
			idx := make(map[string]int, len(g.Feats[i].Categories))
			for slot, c := range g.Feats[i].Categories {
				idx[c] = slot
			}
			s.onehot[i] = idx
		}
	}
	s.pool.New = func() any { return &[]float64{} }
	return s, nil
}

// Graph returns the session's (immutable) graph.
func (s *Session) Graph() *Graph { return s.graph }

// Width returns the feature-matrix width.
func (s *Session) Width() int { return s.width }

// Run scores the batch and returns one value per row.
func (s *Session) Run(b *Batch) ([]float64, error) {
	out := make([]float64, b.N)
	if err := s.RunInto(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto scores the batch into a caller-provided slice of length b.N.
func (s *Session) RunInto(b *Batch, out []float64) error {
	if len(b.Cols) != len(s.graph.Inputs) {
		return fmt.Errorf("onnx: batch has %d columns, graph wants %d", len(b.Cols), len(s.graph.Inputs))
	}
	if len(out) != b.N {
		return fmt.Errorf("onnx: output slice has %d slots for %d rows", len(out), b.N)
	}
	bufp := s.pool.Get().(*[]float64)
	need := b.N * s.width
	if cap(*bufp) < need {
		*bufp = make([]float64, need)
	}
	feats := (*bufp)[:need]
	for i := range feats {
		feats[i] = 0
	}
	defer s.pool.Put(bufp)

	if err := s.featurize(b, feats); err != nil {
		return err
	}
	s.score(feats, b.N, out)
	return nil
}

// colFor maps the featurizer node's input name to its batch column.
func (s *Session) colFor(b *Batch, name string) (*Column, error) {
	for i := range s.graph.Inputs {
		if s.graph.Inputs[i].Name == name {
			return &b.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("onnx: input column %q missing from batch", name)
}

func (s *Session) featurize(b *Batch, feats []float64) error {
	w := s.width
	for ni := range s.graph.Feats {
		node := &s.graph.Feats[ni]
		col, err := s.colFor(b, node.Input)
		if err != nil {
			return err
		}
		off := node.Offset
		switch node.Op {
		case OpScaler:
			if len(col.Nums) < b.N {
				return fmt.Errorf("onnx: numeric column %q has %d values for %d rows", node.Input, len(col.Nums), b.N)
			}
			mean, scale := node.Mean, node.Scale
			for r := 0; r < b.N; r++ {
				feats[r*w+off] = (col.Nums[r] - mean) / scale
			}
		case OpOneHot:
			if len(col.Strs) < b.N {
				return fmt.Errorf("onnx: categorical column %q has %d values for %d rows", node.Input, len(col.Strs), b.N)
			}
			idx := s.onehot[ni]
			for r := 0; r < b.N; r++ {
				if slot, ok := idx[col.Strs[r]]; ok {
					feats[r*w+off+slot] = 1
				}
			}
		case OpHashText:
			if len(col.Strs) < b.N {
				return fmt.Errorf("onnx: text column %q has %d values for %d rows", node.Input, len(col.Strs), b.N)
			}
			buckets := node.Buckets
			for r := 0; r < b.N; r++ {
				ml.CountTokens(col.Strs[r], feats[r*w+off:r*w+off+buckets])
			}
		}
	}
	return nil
}

func (s *Session) score(feats []float64, n int, out []float64) {
	w := s.width
	m := &s.graph.Model
	switch m.Op {
	case OpLinear:
		coeff := m.Coeff
		for r := 0; r < n; r++ {
			row := feats[r*w : r*w+w]
			// Accumulate products first, then the intercept, matching the
			// float ordering of ml's Dot(w, x) + b exactly.
			var acc float64
			for j, c := range coeff {
				acc += c * row[j]
			}
			out[r] = acc + m.Intercept
		}
	case OpTreeEnsemble:
		s.packOnce.Do(func() { s.packed = packTrees(m.Trees) })
		scoreTrees(s.packed, len(m.Trees), m.Base, m.Rate, feats, w, n, out)
	}
	if m.PostSigmoid {
		for r := 0; r < n; r++ {
			out[r] = ml.Sigmoid(out[r])
		}
	}
}

// BatchFromFrame adapts an ml.Frame into a Batch ordered by the graph's
// inputs; a convenience for tests and the standalone scoring path.
func BatchFromFrame(g *Graph, f *ml.Frame) (*Batch, error) {
	b := &Batch{N: f.NumRows()}
	for _, in := range g.Inputs {
		col := f.Col(in.Name)
		if col == nil {
			return nil, fmt.Errorf("onnx: frame is missing column %q", in.Name)
		}
		if col.Kind != in.Kind {
			return nil, fmt.Errorf("onnx: column %q is %v, graph wants %v", in.Name, col.Kind, in.Kind)
		}
		b.Cols = append(b.Cols, Column{Nums: col.Nums, Strs: col.Strs})
	}
	return b, nil
}
