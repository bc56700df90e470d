package onnx

import (
	"math"
	"slices"

	"repro/internal/ml"
)

// This file implements the model-side rewrites used by the cross-optimizer
// (internal/opt): input pruning from model sparsity, stats-driven model
// compression, and predicate push-up into the model. All transforms operate
// on a copy of the deployed graph (Clone, or Compressed's lighter one);
// deployed models are immutable.

// PruneResult describes the effect of PruneUnusedFeatures.
type PruneResult struct {
	DroppedInputs  []string // input columns no longer read at all
	KeptFeatures   int
	TotalFeatures  int
	DroppedColumns int // one-hot categories removed
}

// PruneUnusedFeatures removes featurizer output slots the model never reads
// ("automatic pruning (projection) of unused input feature-columns
// exploiting model-sparsity"). Whole featurizer nodes whose block is unused
// are dropped — along with their input columns — and one-hot encoders are
// narrowed to the categories the model actually tests. Feature indices in
// the model are remapped accordingly. The graph is modified in place.
func PruneUnusedFeatures(g *Graph) PruneResult {
	res := PruneResult{TotalFeatures: g.Width()}
	used := make([]bool, g.Width())
	for _, f := range g.UsedFeatures() {
		used[f] = true
	}

	// Decide, per featurizer node, which output slots survive.
	remap := make([]int, g.Width()) // old feature index -> new, -1 if dropped
	for i := range remap {
		remap[i] = -1
	}
	var kept []FeatNode
	next := 0
	for _, node := range g.Feats {
		w := node.Width()
		switch node.Op {
		case OpOneHot:
			var cats []string
			for slot := 0; slot < w; slot++ {
				if used[node.Offset+slot] {
					remap[node.Offset+slot] = next
					next++
					cats = append(cats, node.Categories[slot])
				} else {
					res.DroppedColumns++
				}
			}
			if len(cats) == 0 {
				res.DroppedInputs = append(res.DroppedInputs, node.Input)
				continue
			}
			node.Categories = cats
			kept = append(kept, node)
		default:
			// Scalers and hashers are kept or dropped atomically: a scaler
			// has one slot; a hash block is either referenced or not.
			anyUsed := false
			for slot := 0; slot < w; slot++ {
				if used[node.Offset+slot] {
					anyUsed = true
					break
				}
			}
			if !anyUsed {
				res.DroppedInputs = append(res.DroppedInputs, node.Input)
				continue
			}
			for slot := 0; slot < w; slot++ {
				remap[node.Offset+slot] = next
				next++
			}
			kept = append(kept, node)
		}
	}
	g.Feats = kept
	res.KeptFeatures = next

	// Drop unused input declarations.
	stillRead := map[string]bool{}
	for i := range g.Feats {
		stillRead[g.Feats[i].Input] = true
	}
	var inputs []InputSpec
	for _, in := range g.Inputs {
		if stillRead[in.Name] {
			inputs = append(inputs, in)
		}
	}
	g.Inputs = inputs

	// Remap model feature references.
	switch g.Model.Op {
	case OpLinear:
		coeff := make([]float64, next)
		for old, c := range g.Model.Coeff {
			if n := remap[old]; n >= 0 {
				coeff[n] = c
			}
		}
		g.Model.Coeff = coeff
	case OpTreeEnsemble:
		for ti := range g.Model.Trees {
			tr := &g.Model.Trees[ti]
			for j := range tr.Feature {
				if tr.Left[j] >= 0 {
					tr.Feature[j] = int32(remap[tr.Feature[j]])
				}
			}
		}
	}
	g.Relayout()
	return res
}

// ColumnStats carries per-input-column data statistics collected by the
// engine; the compression pass uses them to specialize the model to the
// data actually stored.
type ColumnStats struct {
	HasRange bool
	Min, Max float64
	// Categories is the set of distinct values for categorical columns;
	// nil means unknown.
	Categories map[string]bool
}

// Stats maps input column names to their statistics.
type Stats map[string]ColumnStats

// CompressResult describes the effect of CompressWithStats.
type CompressResult struct {
	NodesBefore, NodesAfter int // total tree nodes
	CategoriesDropped       int
	Prune                   PruneResult
}

// CompressWithStats specializes the graph to the given column statistics
// ("model compression exploiting input data statistics"):
//
//   - one-hot categories that never occur in the data become constant-zero
//     features, so tree branches testing them are resolved statically and
//     the indicator columns are dropped;
//   - numeric ranges propagate through tree splits, removing branches that
//     no stored row can reach.
//
// The transform finishes with a PruneUnusedFeatures pass to reclaim the
// feature slots the simplification freed. The graph is modified in place.
func CompressWithStats(g *Graph, stats Stats) CompressResult {
	var res CompressResult

	// Per-feature value intervals implied by the stats.
	lo := make([]float64, g.Width())
	hi := make([]float64, g.Width())
	for i := range lo {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	for i := range g.Feats {
		node := &g.Feats[i]
		st, ok := stats[node.Input]
		if !ok {
			continue
		}
		switch node.Op {
		case OpScaler:
			if st.HasRange {
				lo[node.Offset] = (st.Min - node.Mean) / node.Scale
				hi[node.Offset] = (st.Max - node.Mean) / node.Scale
				if lo[node.Offset] > hi[node.Offset] {
					lo[node.Offset], hi[node.Offset] = hi[node.Offset], lo[node.Offset]
				}
			}
		case OpOneHot:
			if st.Categories == nil {
				continue
			}
			for slot, cat := range node.Categories {
				f := node.Offset + slot
				lo[f] = 0
				if st.Categories[cat] {
					hi[f] = 1
				} else {
					hi[f] = 0 // constant zero: category absent from data
					res.CategoriesDropped++
				}
			}
		}
	}

	if g.Model.Op == OpTreeEnsemble {
		for ti := range g.Model.Trees {
			res.NodesBefore += len(g.Model.Trees[ti].Feature)
			g.Model.Trees[ti] = simplifyTree(&g.Model.Trees[ti], lo, hi)
			res.NodesAfter += len(g.Model.Trees[ti].Feature)
		}
	} else {
		res.NodesBefore, res.NodesAfter = 0, 0
	}

	res.Prune = PruneUnusedFeatures(g)
	return res
}

// Compressed is CompressWithStats applied to a copy of g; g is untouched.
// The copy shares g's featurizers, inputs and tree arrays: CompressWithStats
// and its closing PruneUnusedFeatures assign fresh slices for all of them
// (every tree is rebuilt before a feature index is remapped), so nothing
// shared is ever written and no tree is copied only to be thrown away.
func Compressed(g *Graph, stats Stats) (*Graph, CompressResult) {
	c := &Graph{Name: g.Name, Inputs: g.Inputs, Feats: g.Feats, Model: g.Model, Output: g.Output}
	c.Model.Trees = slices.Clone(g.Model.Trees)
	return c, CompressWithStats(c, stats)
}

// simplifyTree rebuilds a tree, resolving splits that are decided by the
// feature intervals and tightening intervals down each branch.
func simplifyTree(tr *Tree, lo, hi []float64) Tree {
	// The rebuilt tree is at most as large as tr: size its arrays once.
	n := len(tr.Feature)
	out := Tree{Feature: make([]int32, 0, n), Threshold: make([]float64, 0, n),
		Left: make([]int32, 0, n), Right: make([]int32, 0, n), Value: make([]float64, 0, n)}
	// local copies so sibling branches don't interfere
	var build func(node int32, lo, hi []float64) int32
	build = func(node int32, lo, hi []float64) int32 {
		if tr.Left[node] < 0 { // leaf
			idx := int32(len(out.Feature))
			out.Feature = append(out.Feature, 0)
			out.Threshold = append(out.Threshold, 0)
			out.Left = append(out.Left, -1)
			out.Right = append(out.Right, -1)
			out.Value = append(out.Value, tr.Value[node])
			return idx
		}
		f := tr.Feature[node]
		t := tr.Threshold[node]
		if hi[f] < t { // every reachable value goes left
			return build(tr.Left[node], lo, hi)
		}
		if lo[f] >= t { // every reachable value goes right
			return build(tr.Right[node], lo, hi)
		}
		idx := int32(len(out.Feature))
		out.Feature = append(out.Feature, f)
		out.Threshold = append(out.Threshold, t)
		out.Left = append(out.Left, -1)
		out.Right = append(out.Right, -1)
		out.Value = append(out.Value, tr.Value[node])

		savedHi := hi[f]
		hi[f] = math.Min(hi[f], math.Nextafter(t, math.Inf(-1)))
		left := build(tr.Left[node], lo, hi)
		hi[f] = savedHi

		savedLo := lo[f]
		lo[f] = math.Max(lo[f], t)
		right := build(tr.Right[node], lo, hi)
		lo[f] = savedLo

		out.Left[idx] = left
		out.Right[idx] = right
		return idx
	}
	root := build(0, lo, hi)
	if root != 0 {
		// Defensive: build emits the surviving root first, so root should
		// always be 0; re-root if that invariant is ever violated.
		out = reroot(out, root)
	}
	return out
}

// reroot rebuilds the tree arrays so that `root` becomes index 0.
func reroot(tr Tree, root int32) Tree {
	var out Tree
	var walk func(n int32) int32
	walk = func(n int32) int32 {
		idx := int32(len(out.Feature))
		out.Feature = append(out.Feature, tr.Feature[n])
		out.Threshold = append(out.Threshold, tr.Threshold[n])
		out.Left = append(out.Left, -1)
		out.Right = append(out.Right, -1)
		out.Value = append(out.Value, tr.Value[n])
		if tr.Left[n] >= 0 {
			l := walk(tr.Left[n])
			r := walk(tr.Right[n])
			out.Left[idx] = l
			out.Right[idx] = r
		}
		return idx
	}
	walk(root)
	return out
}

// PushUpThreshold rewrites "sigmoid(raw) >= p" into "raw >= logit(p)",
// removing the sigmoid from the scoring loop ("predicate push-up ... between
// SQL queries and ML models"). It returns the rewritten constant and whether
// the rewrite applied (the model must end in a sigmoid and p must be in
// (0, 1)). The graph is modified in place.
func PushUpThreshold(g *Graph, p float64) (rawThreshold float64, ok bool) {
	if !g.Model.PostSigmoid || p <= 0 || p >= 1 {
		return 0, false
	}
	g.Model.PostSigmoid = false
	return ml.Logit(p), true
}
