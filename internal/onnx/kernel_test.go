package onnx

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/ml"
)

// treeOuterScore is the tree-ensemble loop Session.score ran before the
// packed kernel: tree outer, each tree streaming every row and stepping
// through the Tree's separate slices. It is the bit-identity oracle for
// scoreTrees.
func treeOuterScore(m *ModelNode, feats []float64, w, n int, out []float64) {
	for r := 0; r < n; r++ {
		out[r] = m.Base
	}
	rate := m.Rate
	for ti := range m.Trees {
		tr := &m.Trees[ti]
		for r := 0; r < n; r++ {
			row := feats[r*w : r*w+w]
			node := int32(0)
			for tr.Left[node] >= 0 {
				if row[tr.Feature[node]] < tr.Threshold[node] {
					node = tr.Left[node]
				} else {
					node = tr.Right[node]
				}
			}
			out[r] += rate * tr.Value[node]
		}
	}
}

// referenceRun scores b like s.Run, but with the tree-outer oracle in
// place of the packed kernel. s must hold a tree ensemble.
func referenceRun(s *Session, b *Batch) ([]float64, error) {
	feats := make([]float64, b.N*s.width)
	if err := s.featurize(b, feats); err != nil {
		return nil, err
	}
	out := make([]float64, b.N)
	m := &s.graph.Model
	treeOuterScore(m, feats, s.width, b.N, out)
	if m.PostSigmoid {
		for r := range out {
			out[r] = ml.Sigmoid(out[r])
		}
	}
	return out, nil
}

// requireSameBits fails unless got and want agree bit for bit, the sign
// of zero included. Any NaN matches any NaN: a score is NaN only when the
// model's own base, rate or leaf values are NaN or infinite, and which
// operand's payload an add passes on is the compiler's register choice.
func requireSameBits(t testing.TB, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d scores, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: packed kernel %v (%#x), tree-outer oracle %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestPackedScoresMatchTreeOuter(t *testing.T) {
	preds := map[string]ml.Predictor{
		"tree":    &ml.DecisionTree{MaxDepth: 6},
		"gbm":     &ml.GradientBoosting{NTrees: 40, MaxDepth: 4, Loss: ml.LossLogistic},
		"gbm-reg": &ml.GradientBoosting{NTrees: 20, MaxDepth: 3},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			p, f, _ := trainedPipeline(t, pred, 400)
			g, err := Export(p)
			if err != nil {
				t.Fatal(err)
			}
			raw := g.Clone()
			PushUpThreshold(raw, 0.7)
			comp := g.Clone()
			CompressWithStats(comp, Stats{
				"age":    {HasRange: true, Min: 30, Max: 60},
				"region": {Categories: map[string]bool{"us": true, "apac": true}},
			})
			for _, gg := range []*Graph{g, raw, comp} {
				sess, err := NewSession(gg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := BatchFromFrame(gg, f)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.Run(b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRun(sess, b)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, got, want)
			}
		})
	}
}

// walkGraph is a one-input graph whose single tree the caller shapes.
func walkGraph(tr Tree) *Graph {
	return &Graph{
		Name:   "walk",
		Output: "score",
		Inputs: []InputSpec{{Name: "x", Kind: ml.KindNumeric}},
		Feats:  []FeatNode{{Op: OpScaler, Input: "x", Scale: 1}},
		Model:  ModelNode{Op: OpTreeEnsemble, Rate: 1, Trees: []Tree{tr}},
	}
}

func TestValidateRejectsUnwalkableTrees(t *testing.T) {
	stump := func() Tree {
		return Tree{
			Feature:   []int32{0, 0, 0},
			Threshold: []float64{0.5, 0, 0},
			Left:      []int32{1, -1, -1},
			Right:     []int32{2, -1, -1},
			Value:     []float64{0, 1, 2},
		}
	}
	if err := walkGraph(stump()).Validate(); err != nil {
		t.Fatalf("a well-formed stump fails validation: %v", err)
	}
	cases := []struct {
		name string
		edit func(g *Graph)
	}{
		{"tree with no nodes", func(g *Graph) { g.Model.Trees[0] = Tree{} }},
		{"internal node without a right child", func(g *Graph) { g.Model.Trees[0].Right[0] = -1 }},
		{"cycle through the root", func(g *Graph) { g.Model.Trees[0].Left[0] = 0 }},
		{"cycle below the root", func(g *Graph) {
			tr := &g.Model.Trees[0]
			tr.Left[1], tr.Right[1] = 1, 2
		}},
		{"node reached twice", func(g *Graph) { g.Model.Trees[0].Right[0] = 1 }},
		{"subtree shared by two parents", func(g *Graph) {
			g.Model.Trees[0] = Tree{
				Feature:   []int32{0, 0, 0, 0, 0},
				Threshold: []float64{0, 1, 2, 0, 0},
				Left:      []int32{1, 3, 3, -1, -1},
				Right:     []int32{2, 4, 4, -1, -1},
				Value:     []float64{0, 0, 0, 1, 2},
			}
		}},
		{"text hashed into zero buckets", func(g *Graph) {
			g.Inputs = append(g.Inputs, InputSpec{Name: "note", Kind: ml.KindText})
			g.Feats = append(g.Feats, FeatNode{Op: OpHashText, Input: "note", Offset: 1})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := walkGraph(stump())
			c.edit(g)
			if err := g.Validate(); err == nil {
				t.Fatal("Validate accepts a graph the scorer cannot walk")
			}
			if _, err := NewSession(g); err == nil {
				t.Fatal("NewSession accepts a graph the scorer cannot walk")
			}
		})
	}
}

// TestKernelSendsTiesAndNaNRight pins the comparison itself: a row goes
// left only when its feature is strictly below the threshold, so a tie,
// a NaN and -0 against a 0 threshold all go right.
func TestKernelSendsTiesAndNaNRight(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		x, thr float64
		left   bool
	}{
		{0.25, 0.5, true},
		{0.5, 0.5, false},
		{math.NaN(), 0.5, false},
		{math.Inf(-1), 0.5, true},
		{math.Inf(1), 0.5, false},
		{negZero, 0, false},
		{0, negZero, false},
		{0.25, math.NaN(), false},
		{math.Inf(-1), math.Inf(-1), false},
	}
	for _, c := range cases {
		g := walkGraph(Tree{
			Feature:   []int32{0, 0, 0},
			Threshold: []float64{c.thr, 0, 0},
			Left:      []int32{1, -1, -1},
			Right:     []int32{2, -1, -1},
			Value:     []float64{0, 1, 2},
		})
		sess, err := NewSession(g)
		if err != nil {
			t.Fatal(err)
		}
		b := &Batch{N: 1, Cols: []Column{{Nums: []float64{c.x}}}}
		got, err := sess.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		want := 2.0
		if c.left {
			want = 1
		}
		if got[0] != want {
			t.Errorf("x=%v thr=%v: scored %v, want %v", c.x, c.thr, got[0], want)
		}
		oracle, _ := referenceRun(sess, b)
		requireSameBits(t, got, oracle)
	}
}

// TestSessionFirstRunRace makes many goroutines race the first Run of a
// fresh Session, which is the one that packs the ensemble.
func TestSessionFirstRunRace(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 20, MaxDepth: 4}, 300)
	g, _ := Export(p)
	b, _ := BatchFromFrame(g, f)
	oracle, _ := NewSession(g)
	want, err := referenceRun(oracle, b)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		sess, err := NewSession(g)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		got := make([][]float64, 16)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], errs[i] = sess.Run(b)
			}()
		}
		close(start)
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			requireSameBits(t, got[i], want)
		}
	}
}

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// fuzzSpecials are the values the scorer's comparison treats specially.
var fuzzSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

// float draws a feature value or threshold: a special value, or a small
// multiple of 1/8 so that ties with thresholds are common.
func (r *fuzzReader) float() float64 {
	b := r.next()
	if int(b) < 3*len(fuzzSpecials) {
		return fuzzSpecials[int(b)%len(fuzzSpecials)]
	}
	return float64(int8(b)) / 8
}

// fuzzTree builds a tree in preorder: a leaf, or an internal node whose
// left or right child may itself be a leaf, so deep one-sided chains are
// as easy to reach as bushy trees.
func (r *fuzzReader) fuzzTree(tr *Tree, width, depth int) int32 {
	idx := int32(len(tr.Feature))
	tr.Feature = append(tr.Feature, 0)
	tr.Threshold = append(tr.Threshold, 0)
	tr.Left = append(tr.Left, -1)
	tr.Right = append(tr.Right, -1)
	tr.Value = append(tr.Value, r.float())
	if depth == 0 || len(tr.Feature) > 200 || r.next()%4 == 0 {
		return idx
	}
	tr.Feature[idx] = int32(int(r.next()) % width)
	tr.Threshold[idx] = r.float()
	left := r.fuzzTree(tr, width, depth-1)
	right := r.fuzzTree(tr, width, depth-1)
	tr.Left[idx], tr.Right[idx] = left, right
	return idx
}

// rawTree builds tree arrays with no structure at all, which Validate
// must either accept as walkable or reject.
func (r *fuzzReader) rawTree(width int) Tree {
	var tr Tree
	n := int(r.next() % 8)
	for j := 0; j < n; j++ {
		tr.Feature = append(tr.Feature, int32(int8(r.next()))%int32(width+1))
		tr.Threshold = append(tr.Threshold, r.float())
		tr.Left = append(tr.Left, int32(int8(r.next()))%int32(n+1))
		tr.Right = append(tr.Right, int32(int8(r.next()))%int32(n+1))
		tr.Value = append(tr.Value, r.float())
	}
	return tr
}

// fuzzGraph builds a graph over numeric x0 and x1 (identity scalers, so a
// feature is exactly the input value), x2 (a fuzzed scaler), a one-hot
// region and a hashed note, and a tree ensemble over them.
func fuzzGraph(r *fuzzReader) *Graph {
	buckets := int(r.next() % 5) // 0 is a graph Validate must reject
	g := &Graph{
		Name:   "fuzz",
		Output: "score",
		Inputs: []InputSpec{
			{Name: "x0", Kind: ml.KindNumeric},
			{Name: "x1", Kind: ml.KindNumeric},
			{Name: "x2", Kind: ml.KindNumeric},
			{Name: "region", Kind: ml.KindCategorical},
			{Name: "note", Kind: ml.KindText},
		},
		Feats: []FeatNode{
			{Op: OpScaler, Input: "x0", Scale: 1},
			{Op: OpScaler, Input: "x1", Scale: 1},
			{Op: OpScaler, Input: "x2", Mean: r.float(), Scale: r.float()},
			{Op: OpOneHot, Input: "region", Categories: []string{"a", "b"}},
			{Op: OpHashText, Input: "note", Buckets: buckets},
		},
	}
	g.Relayout()
	width := g.Width()
	m := ModelNode{Op: OpTreeEnsemble, Base: r.float(), Rate: r.float(), PostSigmoid: r.next()%2 == 1}
	if m.Rate == 0 {
		m.Rate = 1
	}
	for nt := int(r.next() % 5); nt > 0; nt-- {
		if r.next()%8 == 0 {
			m.Trees = append(m.Trees, r.rawTree(width))
			continue
		}
		var tr Tree
		r.fuzzTree(&tr, width, int(r.next()%40))
		m.Trees = append(m.Trees, tr)
	}
	g.Model = m
	return g
}

// fuzzFrame draws rows for every input fuzzGraph declares.
func fuzzFrame(r *fuzzReader) *ml.Frame {
	n := 1 + int(r.next()%6)
	x0, x1, x2 := make([]float64, n), make([]float64, n), make([]float64, n)
	regions, notes := make([]string, n), make([]string, n)
	words := []string{"late", "payment", "Loyal", "Kelvin", "İstanbul", "x9", ""}
	for i := 0; i < n; i++ {
		x0[i], x1[i], x2[i] = r.float(), r.float(), r.float()
		regions[i] = []string{"a", "b", "c"}[r.next()%3]
		var sb strings.Builder
		for k := int(r.next() % 4); k > 0; k-- {
			sb.WriteString(words[int(r.next())%len(words)])
			sb.WriteByte(' ')
		}
		notes[i] = sb.String()
	}
	return ml.NewFrame().
		AddNumeric("x0", x0).
		AddNumeric("x1", x1).
		AddNumeric("x2", x2).
		AddCategorical("region", regions).
		AddText("note", notes)
}

// FuzzSessionScore is the packed kernel's property: on any graph Validate
// accepts, including PushUpThreshold and CompressWithStats rewrites of it,
// a Session scores bit for bit like the tree-outer oracle; on any graph
// it rejects, NewSession fails. Neither panics nor hangs.
func FuzzSessionScore(f *testing.F) {
	// Seeds, byte by byte in the order fuzzGraph and fuzzFrame read them:
	// transform, buckets, x2's mean and scale, base, rate, sigmoid, tree
	// count; per tree a raw-or-built byte and a depth, then per node a
	// value, a leaf-or-internal byte, a feature and a threshold; then the
	// row count and per row x0, x1, x2, region and words. Byte 3 is -0,
	// 0 is NaN, 1 and 2 are ±Inf, b ≥ 27 is int8(b)/8.
	f.Add([]byte{})
	// One tree that is a single leaf.
	f.Add([]byte{0, 1, 4, 40, 4, 40, 0, 1, 1, 5, 40, 0, 0, 41, 42, 43, 0, 1, 0})
	// A depth-3 tree with NaN, -0 and +Inf thresholds, scored on rows
	// holding NaN, ±Inf, -0 and ties.
	bushy := []byte{40, 1, 0, 0, 41, 1, 1, 3, 42, 0, 43, 0, 44, 1, 0, 1, 45, 0, 46, 0}
	specials := append([]byte{0, 1, 4, 40, 4, 40, 0, 1, 1, 3}, bushy...)
	f.Add(append(specials, 5, 0, 3, 4, 0, 0, 3, 0, 1, 1, 1, 2, 1, 2, 4, 2, 0, 2, 1, 0, 0, 0, 4, 4, 3, 1, 0, 6, 7, 8, 0, 0))
	// A 31-deep one-sided chain: every left child is a leaf.
	chain := []byte{0, 2, 4, 40, 4, 40, 1, 1, 1, 39}
	for i := byte(0); i < 30; i++ {
		chain = append(chain, 48+i, 1, 0, 44+i, 50, 0)
	}
	f.Add(append(chain, 60, 0, 3, 0, 1, 2, 0, 0, 1, 2, 2, 1, 1, 1, 3, 4, 5, 2, 2, 2, 3, 46, 4, 3, 0, 0))
	// Two bushy trees under PushUpThreshold (transform 1) and under
	// CompressWithStats (transform 2).
	two := append(append(append([]byte{3, 4, 40, 4, 40, 1, 2, 1, 3}, bushy...), 1, 3), bushy...)
	rows := []byte{2, 0, 3, 4, 0, 2, 1, 3, 44, 45, 46, 1, 0, 48, 47, 40, 2, 1, 5}
	f.Add(append(append(append([]byte{1}, two...), rows...), 200))
	f.Add(append(append(append([]byte{2}, two...), rows...), 3, 48, 0))
	// Text hashed into zero buckets, which Validate must reject.
	f.Add([]byte{0, 0, 4, 40, 4, 40, 0, 1, 1, 5, 40, 0, 0, 41, 42, 43, 0, 1, 0})
	// A raw tree whose arrays Validate must judge.
	f.Add([]byte{0, 1, 4, 40, 4, 40, 0, 1, 8, 3, 0, 40, 1, 2, 41, 2, 42, 255, 255, 43, 1, 44, 0, 0, 45, 0, 41, 42, 43, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		transform := r.next() % 3
		g := fuzzGraph(&r)
		frame := fuzzFrame(&r)
		if err := g.Validate(); err != nil {
			if _, err := NewSession(g); err == nil {
				t.Fatalf("Validate rejects the graph (%v) but NewSession accepts it", err)
			}
			return
		}
		switch transform {
		case 1:
			if p := float64(r.next()) / 256; p > 0 {
				PushUpThreshold(g, p)
			}
		case 2:
			lo, hi := r.float(), r.float()
			CompressWithStats(g, Stats{
				"x0":     {HasRange: !math.IsNaN(lo) && !math.IsNaN(hi), Min: math.Min(lo, hi), Max: math.Max(lo, hi)},
				"region": {Categories: map[string]bool{"a": r.next()%2 == 0, "b": true}},
			})
			if err := g.Validate(); err != nil {
				t.Fatalf("CompressWithStats made a valid graph invalid: %v", err)
			}
		}
		sess, err := NewSession(g)
		if err != nil {
			t.Fatalf("Validate accepts the graph but NewSession fails: %v", err)
		}
		b, err := BatchFromFrame(g, frame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRun(sess, b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, got, want)
	})
}
