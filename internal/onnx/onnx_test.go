package onnx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ml"
)

// trainedPipeline builds and fits a mixed-type pipeline on synthetic data.
func trainedPipeline(t testing.TB, pred ml.Predictor, n int) (*ml.Pipeline, *ml.Frame, []float64) {
	t.Helper()
	r := ml.NewRand(99)
	ages := make([]float64, n)
	income := make([]float64, n)
	regions := make([]string, n)
	notes := make([]string, n)
	y := make([]float64, n)
	regionNames := []string{"us", "eu", "apac", "latam"}
	phrases := []string{"on time", "late payment", "disputed charge", "loyal customer", ""}
	for i := 0; i < n; i++ {
		ages[i] = 20 + r.Float64()*50
		income[i] = 20000 + r.Float64()*100000
		regions[i] = regionNames[r.Intn(4)]
		notes[i] = phrases[r.Intn(5)]
		score := (ages[i]-45)/12 + (income[i]-70000)/40000
		if regions[i] == "us" {
			score++
		}
		if score > 0 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().
		AddNumeric("age", ages).
		AddNumeric("income", income).
		AddCategorical("region", regions).
		AddText("notes", notes)
	p := ml.NewPipeline("risk",
		ml.NewFeaturizer().
			With("age", &ml.StandardScaler{}).
			With("income", &ml.StandardScaler{}).
			With("region", &ml.OneHotEncoder{}).
			With("notes", &ml.HashingVectorizer{Buckets: 8}),
		pred)
	if err := p.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	return p, f, y
}

func TestExportRoundTripEquivalence(t *testing.T) {
	preds := map[string]ml.Predictor{
		"linear":   &ml.LinearRegression{},
		"logistic": &ml.LogisticRegression{Epochs: 50},
		"tree":     &ml.DecisionTree{MaxDepth: 4},
		"gbm":      &ml.GradientBoosting{NTrees: 25, MaxDepth: 3, Loss: ml.LossLogistic},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			p, f, _ := trainedPipeline(t, pred, 300)
			g, err := Export(p)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(g)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BatchFromFrame(g, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Run(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.PredictBatch(f)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: session %v != pipeline %v (must be bit-identical)", i, got[i], want[i])
				}
			}
		})
	}
}

func TestExportErrors(t *testing.T) {
	if _, err := Export(nil); err == nil {
		t.Error("nil pipeline should error")
	}
	if _, err := Export(&ml.Pipeline{Name: "x"}); err == nil {
		t.Error("incomplete pipeline should error")
	}
}

func TestGraphValidate(t *testing.T) {
	p, _, _ := trainedPipeline(t, &ml.LinearRegression{}, 100)
	g, err := Export(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g.Clone()
	bad.Feats[0].Input = "ghost"
	if err := bad.Validate(); err == nil {
		t.Error("undeclared input should fail validation")
	}
	bad = g.Clone()
	bad.Model.Coeff = bad.Model.Coeff[:2]
	if err := bad.Validate(); err == nil {
		t.Error("short coefficient vector should fail validation")
	}
	bad = g.Clone()
	bad.Output = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing output name should fail validation")
	}
	bad = g.Clone()
	bad.Feats[1].Offset = 99
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent offsets should fail validation")
	}
}

func TestGraphCloneIsDeep(t *testing.T) {
	p, _, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 5}, 100)
	g, _ := Export(p)
	c := g.Clone()
	c.Model.Trees[0].Threshold[0] = 1e9
	c.Feats[2].Categories[0] = "MUTATED"
	if g.Model.Trees[0].Threshold[0] == 1e9 {
		t.Error("tree arrays are shared after Clone")
	}
	if g.Feats[2].Categories[0] == "MUTATED" {
		t.Error("categories are shared after Clone")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 10, Loss: ml.LossLogistic}, 150)
	g, _ := Export(p)
	blob, err := Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := NewSession(g)
	s2, _ := NewSession(g2)
	b, _ := BatchFromFrame(g, f)
	r1, err := s1.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("serialized model differs at row %d", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("garbage")); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := Unmarshal([]byte{}); err == nil {
		t.Error("empty blob should error")
	}
	if _, err := Unmarshal([]byte("FLCKnotgob")); err == nil {
		t.Error("corrupt body should error")
	}
}

func TestPruneUnusedFeatures(t *testing.T) {
	// Train a GBM where the text column carries no signal; the exported
	// model should not use every hash bucket, and a model trained only on
	// informative columns lets us verify full-column drops.
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 10, MaxDepth: 2}, 400)
	g, _ := Export(p)
	orig := g.Clone()
	res := PruneUnusedFeatures(g)
	if res.KeptFeatures > res.TotalFeatures {
		t.Fatalf("kept %d > total %d", res.KeptFeatures, res.TotalFeatures)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("pruned graph invalid: %v", err)
	}
	// Semantics preserved on the training data.
	sOrig, _ := NewSession(orig)
	sPruned, _ := NewSession(g)
	bOrig, _ := BatchFromFrame(orig, f)
	bPruned, err := BatchFromFrame(g, f)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := sOrig.Run(bOrig)
	r2, _ := sPruned.Run(bPruned)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("pruning changed prediction at row %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestPruneDropsDeadColumns(t *testing.T) {
	// Linear model with zero coefficients on one whole block.
	p, _, _ := trainedPipeline(t, &ml.LinearRegression{}, 100)
	g, _ := Export(p)
	// Zero out the hash block (offset of notes node) manually.
	var notesNode *FeatNode
	for i := range g.Feats {
		if g.Feats[i].Input == "notes" {
			notesNode = &g.Feats[i]
		}
	}
	for j := 0; j < notesNode.Buckets; j++ {
		g.Model.Coeff[notesNode.Offset+j] = 0
	}
	res := PruneUnusedFeatures(g)
	found := false
	for _, d := range res.DroppedInputs {
		if d == "notes" {
			found = true
		}
	}
	if !found {
		t.Errorf("notes column should be dropped, got %v", res.DroppedInputs)
	}
	for _, in := range g.Inputs {
		if in.Name == "notes" {
			t.Error("notes input spec should be removed")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressWithStats(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 30, MaxDepth: 4}, 500)
	g, _ := Export(p)
	orig := g.Clone()

	// Stats restricted to what the data actually contains.
	stats := Stats{
		"age":    {HasRange: true, Min: 20, Max: 70},
		"income": {HasRange: true, Min: 20000, Max: 120000},
		"region": {Categories: map[string]bool{"us": true, "eu": true, "apac": true, "latam": true}},
	}
	res := CompressWithStats(g, stats)
	if res.NodesAfter > res.NodesBefore {
		t.Errorf("compression grew the model: %d -> %d", res.NodesBefore, res.NodesAfter)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("compressed graph invalid: %v", err)
	}
	sOrig, _ := NewSession(orig)
	sComp, _ := NewSession(g)
	bOrig, _ := BatchFromFrame(orig, f)
	bComp, _ := BatchFromFrame(g, f)
	r1, _ := sOrig.Run(bOrig)
	r2, _ := sComp.Run(bComp)
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			t.Fatalf("compression changed prediction at row %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

// TestCompressedLeavesOriginal pins Compressed: its copy compresses exactly
// like CompressWithStats on a deep Clone, also after a PruneUnusedFeatures
// pass (the planner prunes, the executor compresses the pruned graph), and
// the graph it copied keeps its content.
func TestCompressedLeavesOriginal(t *testing.T) {
	stats := Stats{
		"age":    {HasRange: true, Min: 20, Max: 30},
		"income": {HasRange: true, Min: 20000, Max: 40000},
		"region": {Categories: map[string]bool{"us": true, "eu": true}},
	}
	for _, pred := range []ml.Predictor{&ml.GradientBoosting{NTrees: 20, MaxDepth: 4}, &ml.LogisticRegression{Epochs: 20}} {
		p, _, _ := trainedPipeline(t, pred, 400)
		g, err := Export(p)
		if err != nil {
			t.Fatal(err)
		}
		before := g.Clone().Fingerprint()
		want := g.Clone()
		CompressWithStats(want, stats)

		got, _ := Compressed(g, stats)
		pruned := g.Clone()
		PruneUnusedFeatures(pruned)
		gotPruned, _ := Compressed(pruned, stats)
		if got.Fingerprint() != want.Fingerprint() || gotPruned.Fingerprint() != want.Fingerprint() {
			t.Errorf("%T: Compressed differs from CompressWithStats on a clone", pred)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%T: %v", pred, err)
		}
		if g.Clone().Fingerprint() != before {
			t.Errorf("%T: Compressed wrote to the graph it copied", pred)
		}
	}
}

func TestCompressDropsAbsentCategories(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 20, MaxDepth: 3}, 500)
	g, _ := Export(p)
	orig := g.Clone()
	// Pretend the target table only contains two regions.
	stats := Stats{
		"region": {Categories: map[string]bool{"us": true, "eu": true}},
	}
	res := CompressWithStats(g, stats)
	if res.CategoriesDropped == 0 {
		t.Skip("model did not use the absent categories; nothing to verify")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Predictions must agree on rows whose region is within the stats.
	sOrig, _ := NewSession(orig)
	sComp, _ := NewSession(g)
	bO, _ := BatchFromFrame(orig, f)
	bC, err := BatchFromFrame(g, f)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := sOrig.Run(bO)
	r2, _ := sComp.Run(bC)
	for i := 0; i < f.NumRows(); i++ {
		region := f.Col("region").Strs[i]
		if region != "us" && region != "eu" {
			continue
		}
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			t.Fatalf("row %d (%s): %v vs %v", i, region, r1[i], r2[i])
		}
	}
}

func TestPushUpThreshold(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.LogisticRegression{Epochs: 50}, 300)
	g, _ := Export(p)
	orig := g.Clone()
	const prob = 0.8
	raw, ok := PushUpThreshold(g, prob)
	if !ok {
		t.Fatal("push-up should apply to a sigmoid classifier")
	}
	if g.Model.PostSigmoid {
		t.Error("sigmoid should be removed")
	}
	sOrig, _ := NewSession(orig)
	sRaw, _ := NewSession(g)
	b, _ := BatchFromFrame(orig, f)
	probs, _ := sOrig.Run(b)
	raws, _ := sRaw.Run(b)
	for i := range probs {
		if (probs[i] >= prob) != (raws[i] >= raw) {
			t.Fatalf("row %d: prob %v vs raw %v disagree on threshold", i, probs[i], raws[i])
		}
	}
	// Does not apply twice or to non-sigmoid models.
	if _, ok := PushUpThreshold(g, prob); ok {
		t.Error("push-up applied to a model without sigmoid")
	}
	if _, ok := PushUpThreshold(orig.Clone(), 1.5); ok {
		t.Error("push-up applied with out-of-range probability")
	}
}

func TestRemoteScorerMatchesLocal(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 15, Loss: ml.LossLogistic}, 2500)
	g, _ := Export(p)
	rs, err := NewRemoteScorer(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := NewSession(g)
	b, _ := BatchFromFrame(g, f)
	local, _ := sess.Run(b)
	remote, err := rs.Score(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote returned %d scores, want %d", len(remote), len(local))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("remote differs at row %d", i)
		}
	}
}

func TestSessionErrors(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.LinearRegression{}, 50)
	g, _ := Export(p)
	sess, _ := NewSession(g)
	b, _ := BatchFromFrame(g, f)
	if err := sess.RunInto(b, make([]float64, 3)); err == nil {
		t.Error("short output slice should error")
	}
	bad := &Batch{N: 50, Cols: b.Cols[:1]}
	if _, err := sess.Run(bad); err == nil {
		t.Error("column-count mismatch should error")
	}
	short := &Batch{N: 50}
	for _, c := range b.Cols {
		nc := c
		if nc.Nums != nil {
			nc.Nums = nc.Nums[:10]
		}
		short.Cols = append(short.Cols, nc)
	}
	if _, err := sess.Run(short); err == nil {
		t.Error("short column should error")
	}
}

func TestSessionConcurrentUse(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 10}, 500)
	g, _ := Export(p)
	sess, _ := NewSession(g)
	b, _ := BatchFromFrame(g, f)
	want, _ := sess.Run(b)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for k := 0; k < 20; k++ {
				got, err := sess.Run(b)
				if err != nil {
					done <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errType{}

type errType struct{}

func (errType) Error() string { return "concurrent run mismatch" }

// Property: pruning and compression never change predictions on data that
// satisfies the stats, for random thresholds and random inputs.
func TestTransformSemanticsProperty(t *testing.T) {
	p, _, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 12, MaxDepth: 3, Loss: ml.LossLogistic}, 400)
	g0, _ := Export(p)
	sess0, _ := NewSession(g0)

	g1 := g0.Clone()
	PruneUnusedFeatures(g1)
	sess1, _ := NewSession(g1)

	f := func(age, income float64, regionPick uint8) bool {
		if math.IsNaN(age) || math.IsInf(age, 0) || math.IsNaN(income) || math.IsInf(income, 0) {
			return true
		}
		regions := []string{"us", "eu", "apac", "latam"}
		fr := ml.NewFrame().
			AddNumeric("age", []float64{age}).
			AddNumeric("income", []float64{income}).
			AddCategorical("region", []string{regions[int(regionPick)%4]}).
			AddText("notes", []string{"late payment"})
		b0, err := BatchFromFrame(g0, fr)
		if err != nil {
			return false
		}
		b1, err := BatchFromFrame(g1, fr)
		if err != nil {
			return false
		}
		r0, err0 := sess0.Run(b0)
		r1, err1 := sess1.Run(b1)
		if err0 != nil || err1 != nil {
			return false
		}
		return r0[0] == r1[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
