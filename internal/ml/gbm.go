package ml

import (
	"errors"
	"fmt"
)

// GBMLoss selects the loss function optimized by GradientBoosting.
type GBMLoss int

// Supported boosting losses.
const (
	LossSquared  GBMLoss = iota // regression, squared error
	LossLogistic                // binary classification, log loss
)

// GradientBoosting is a gradient-boosted ensemble of CART regression trees,
// in the style of scikit-learn's GradientBoostingRegressor/Classifier.
// For LossLogistic, predictions are positive-class probabilities.
type GradientBoosting struct {
	// NTrees defaults to 100, LearningRate to 0.1, MaxDepth to 3,
	// MinLeaf to 1.
	NTrees       int
	LearningRate float64
	MaxDepth     int
	MinLeaf      int
	Loss         GBMLoss

	Base  float64 // initial raw score
	Trees []*DecisionTree
}

func (g *GradientBoosting) defaults() (nTrees int, rate float64, depth, minLeaf int) {
	nTrees, rate, depth, minLeaf = g.NTrees, g.LearningRate, g.MaxDepth, g.MinLeaf
	if nTrees == 0 {
		nTrees = 100
	}
	if rate == 0 {
		rate = 0.1
	}
	if depth == 0 {
		depth = 3
	}
	if minLeaf == 0 {
		minLeaf = 1
	}
	return nTrees, rate, depth, minLeaf
}

// Fit trains the ensemble on x, y. For LossLogistic, y must be 0/1 labels.
func (g *GradientBoosting) Fit(x *Matrix, y []float64) error {
	if x.Rows != len(y) {
		return fmt.Errorf("ml: GradientBoosting.Fit: %d rows but %d targets", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return errors.New("ml: GradientBoosting.Fit: empty training set")
	}
	nTrees, rate, depth, minLeaf := g.defaults()

	raw := make([]float64, x.Rows) // current raw score per row
	switch g.Loss {
	case LossSquared:
		g.Base = Mean(y)
	case LossLogistic:
		p := Mean(y)
		const eps = 1e-6
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		g.Base = Logit(p)
	default:
		return fmt.Errorf("ml: GradientBoosting.Fit: unknown loss %d", g.Loss)
	}
	for i := range raw {
		raw[i] = g.Base
	}

	residual := make([]float64, x.Rows)
	pred := make([]float64, x.Rows)
	g.Trees = g.Trees[:0]
	for t := 0; t < nTrees; t++ {
		// Negative gradient of the loss w.r.t. the raw score.
		switch g.Loss {
		case LossSquared:
			for i, v := range y {
				residual[i] = v - raw[i]
			}
		case LossLogistic:
			for i, v := range y {
				residual[i] = v - Sigmoid(raw[i])
			}
		}
		tree := &DecisionTree{MaxDepth: depth, MinLeaf: minLeaf}
		if err := tree.Fit(x, residual); err != nil {
			return fmt.Errorf("ml: GradientBoosting.Fit tree %d: %w", t, err)
		}
		tree.PredictInto(x, pred)
		for i := range raw {
			raw[i] += rate * pred[i]
		}
		g.Trees = append(g.Trees, tree)
	}
	return nil
}

// rawRow computes the unsquashed ensemble score for one feature vector.
func (g *GradientBoosting) rawRow(row []float64) float64 {
	rate := g.LearningRate
	if rate == 0 {
		rate = 0.1
	}
	s := g.Base
	for _, t := range g.Trees {
		s += rate * t.PredictRow(row)
	}
	return s
}

// PredictInto writes one prediction per row of x into out. For
// LossLogistic, predictions are probabilities.
//
// The loop runs row-outer with the tree walk inlined: a row's features
// (tens of bytes) stay in L1 while every tree is walked, instead of
// streaming the whole matrix through cache once per tree. Per row the
// terms accumulate in tree order, so results are bit-identical to the
// per-row PredictRow walk.
func (g *GradientBoosting) PredictInto(x *Matrix, out []float64) {
	n := x.Rows
	acc := out[:n]
	rate := g.LearningRate
	if rate == 0 {
		rate = 0.1
	}
	trees := g.Trees
	data, cols := x.Data, x.Cols
	logistic := g.Loss == LossLogistic
	for i := 0; i < n; i++ {
		row := data[i*cols : i*cols+cols]
		s := g.Base
		for ti := range trees {
			nodes := trees[ti].Nodes
			nn := int32(0)
			for {
				nd := &nodes[nn]
				if nd.Left < 0 {
					s += rate * nd.Value
					break
				}
				if row[nd.Feature] < nd.Threshold {
					nn = nd.Left
				} else {
					nn = nd.Right
				}
			}
		}
		if logistic {
			s = Sigmoid(s)
		}
		acc[i] = s
	}
}

// PredictRow scores a single feature vector.
func (g *GradientBoosting) PredictRow(row []float64) float64 {
	s := g.rawRow(row)
	if g.Loss == LossLogistic {
		return Sigmoid(s)
	}
	return s
}

// usedFeatures returns the sorted union of feature indices used by any tree.
func (g *GradientBoosting) usedFeatures() []int {
	seen := map[int]bool{}
	for _, t := range g.Trees {
		for _, f := range t.UsedFeatures() {
			seen[f] = true
		}
	}
	out := make([]int, 0, len(seen))
	for f := 0; ; f++ {
		if len(out) == len(seen) {
			break
		}
		if seen[f] {
			out = append(out, f)
		}
	}
	return out
}
