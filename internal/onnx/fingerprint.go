package onnx

import "math"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv is an inlined FNV-1a accumulator shared by the row hash and the
// graph fingerprint.
type fnv uint64

func (h *fnv) word(v uint64) {
	x := uint64(*h)
	for s := 0; s < 64; s += 8 {
		x ^= (v >> s) & 0xff
		x *= fnvPrime64
	}
	*h = fnv(x)
}

func (h *fnv) float(f float64) { h.word(math.Float64bits(f)) }

func (h *fnv) str(s string) {
	h.word(uint64(len(s)))
	x := uint64(*h)
	for j := 0; j < len(s); j++ {
		x ^= uint64(s[j])
		x *= fnvPrime64
	}
	*h = fnv(x)
}

// HashRow computes an FNV-1a hash over one row of the batch — the
// feature-vector half of a score-cache key. Column index, kind, and value
// all feed the hash so distinct input layouts (e.g. a sparsity-pruned plan
// graph vs the full registry graph) cannot collide.
func (b *Batch) HashRow(row int) uint64 {
	h := fnv(fnvOffset64)
	for i := range b.Cols {
		col := &b.Cols[i]
		if col.Nums != nil {
			h.word(uint64(2*i + 1))
			h.float(col.Nums[row])
			continue
		}
		h.word(uint64(2*i + 2))
		h.str(col.Strs[row])
	}
	return uint64(h)
}

// Fingerprint hashes the graph's full content — inputs, featurizer
// parameters, model weights, output name. The planner clones the deployed
// graph into every plan, so pointer identity cannot tell "same model
// version from another query" apart from "redeployed model"; content
// fingerprints can. Two content-identical graphs score identically, so
// state keyed by fingerprint (cached scores, sessions, batchers) is soundly
// shared across them.
//
// The hash is computed on first call and memoized on the graph, so the
// graph must be finished (no Relayout or pruning still to come) by then;
// Clone starts its copy with an empty memo for that reason. Concurrent
// first calls compute the same value, so the unguarded publish is benign.
func (g *Graph) Fingerprint() uint64 {
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	fp := g.contentHash()
	g.fp.Store(fp) // a zero hash is merely recomputed per call
	return fp
}

func (g *Graph) contentHash() uint64 {
	h := fnv(fnvOffset64)
	h.str(g.Name)
	h.str(g.Output)
	h.word(uint64(len(g.Inputs)))
	for _, in := range g.Inputs {
		h.str(in.Name)
		h.word(uint64(in.Kind))
	}
	h.word(uint64(len(g.Feats)))
	for i := range g.Feats {
		f := &g.Feats[i]
		h.word(uint64(f.Op))
		h.str(f.Input)
		h.word(uint64(f.Offset))
		h.float(f.Mean)
		h.float(f.Scale)
		h.word(uint64(len(f.Categories)))
		for _, c := range f.Categories {
			h.str(c)
		}
		h.word(uint64(f.Buckets))
	}
	m := &g.Model
	h.word(uint64(m.Op))
	h.word(uint64(len(m.Coeff)))
	for _, c := range m.Coeff {
		h.float(c)
	}
	h.float(m.Intercept)
	h.float(m.Base)
	h.float(m.Rate)
	if m.PostSigmoid {
		h.word(1)
	}
	h.word(uint64(len(m.Trees)))
	for t := range m.Trees {
		tr := &m.Trees[t]
		h.word(uint64(len(tr.Feature)))
		for i := range tr.Feature {
			h.word(uint64(tr.Feature[i]))
			h.float(tr.Threshold[i])
			h.word(uint64(uint32(tr.Left[i])))
			h.word(uint64(uint32(tr.Right[i])))
			h.float(tr.Value[i])
		}
	}
	return uint64(h)
}
