package ml

import (
	"math"
	"testing"
	"testing/quick"
)

// synthLinear builds y = 3*x0 - 2*x1 + 0.5 + noise.
func synthLinear(n int, noise float64, seed uint64) (*Matrix, []float64) {
	r := NewRand(seed)
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = 3*a - 2*b + 0.5 + noise*r.NormFloat64()
	}
	return x, y
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	x, y := synthLinear(500, 0, 1)
	lr := &LinearRegression{}
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !almostEq(lr.Weights[0], 3, 1e-6) || !almostEq(lr.Weights[1], -2, 1e-6) {
		t.Errorf("weights = %v, want [3 -2]", lr.Weights)
	}
	if !almostEq(lr.Intercept, 0.5, 1e-6) {
		t.Errorf("intercept = %v, want 0.5", lr.Intercept)
	}
}

func TestLinearRegressionWithNoise(t *testing.T) {
	x, y := synthLinear(2000, 0.1, 2)
	lr := &LinearRegression{}
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(y))
	lr.PredictInto(x, pred)
	if rmse := RMSE(pred, y); rmse > 0.15 {
		t.Errorf("RMSE = %v, want < 0.15", rmse)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	// Duplicate column: singular Gram matrix; ridge fallback must engage.
	x := NewMatrix(10, 2)
	y := make([]float64, 10)
	for i := 0; i < 10; i++ {
		v := float64(i)
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		y[i] = 2 * v
	}
	lr := &LinearRegression{}
	if err := lr.Fit(x, y); err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	if p := lr.PredictRow([]float64{4, 4}); !almostEq(p, 8, 1e-3) {
		t.Errorf("predict(4,4) = %v, want ~8", p)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	lr := &LinearRegression{}
	if err := lr.Fit(NewMatrix(0, 2), nil); err == nil {
		t.Error("empty training set should error")
	}
	if err := lr.Fit(NewMatrix(3, 2), []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	// Positive iff x0 + x1 > 0 with margin.
	r := NewRand(3)
	n := 600
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			y[i] = 1
		}
	}
	lr := &LogisticRegression{Epochs: 500}
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, n)
	lr.PredictInto(x, pred)
	if acc := Accuracy(pred, y); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
	auc, err := rocAUC(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.97 {
		t.Errorf("AUC = %v, want >= 0.97", auc)
	}
}

func TestLogisticRegressionRejectsNonBinary(t *testing.T) {
	x := NewMatrix(2, 1)
	lr := &LogisticRegression{}
	if err := lr.Fit(x, []float64{0, 2}); err == nil {
		t.Error("non-binary labels should error")
	}
}

func TestDecisionTreeFitsStepFunction(t *testing.T) {
	// y = 10 if x0 >= 5 else -10: one split suffices.
	n := 100
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)/10)
		if x.At(i, 0) >= 5 {
			y[i] = 10
		} else {
			y[i] = -10
		}
	}
	dt := &DecisionTree{MaxDepth: 2}
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if p := dt.PredictRow([]float64{7}); p != 10 {
		t.Errorf("predict(7) = %v, want 10", p)
	}
	if p := dt.PredictRow([]float64{2}); p != -10 {
		t.Errorf("predict(2) = %v, want -10", p)
	}
	if d := dt.depth(); d < 1 || d > 2 {
		t.Errorf("depth = %d, want 1..2", d)
	}
}

func TestDecisionTreeConstantTarget(t *testing.T) {
	x := NewMatrix(20, 3)
	y := make([]float64, 20)
	for i := range y {
		y[i] = 7
	}
	dt := &DecisionTree{}
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(dt.Nodes) != 1 || !dt.Nodes[0].IsLeaf() {
		t.Errorf("constant target should produce a single leaf, got %d nodes", len(dt.Nodes))
	}
	if dt.PredictRow([]float64{0, 0, 0}) != 7 {
		t.Error("leaf value should be the mean target")
	}
}

func TestDecisionTreeMinLeaf(t *testing.T) {
	x, y := synthLinear(50, 0.5, 4)
	dt := &DecisionTree{MaxDepth: 10, MinLeaf: 10}
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Count rows reaching each leaf; none may hold fewer than MinLeaf.
	counts := map[int32]int{}
	for i := 0; i < x.Rows; i++ {
		n := int32(0)
		for !dt.Nodes[n].IsLeaf() {
			if x.At(i, int(dt.Nodes[n].Feature)) < dt.Nodes[n].Threshold {
				n = dt.Nodes[n].Left
			} else {
				n = dt.Nodes[n].Right
			}
		}
		counts[n]++
	}
	for leaf, c := range counts {
		if c < 10 {
			t.Errorf("leaf %d has %d rows, want >= 10", leaf, c)
		}
	}
}

func TestDecisionTreeUsedFeatures(t *testing.T) {
	// Only feature 1 is informative.
	r := NewRand(5)
	n := 200
	x := NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.NormFloat64())
		x.Set(i, 1, r.NormFloat64())
		x.Set(i, 2, r.NormFloat64())
		if x.At(i, 1) > 0 {
			y[i] = 100
		}
	}
	dt := &DecisionTree{MaxDepth: 1}
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	used := dt.UsedFeatures()
	if len(used) != 1 || used[0] != 1 {
		t.Errorf("UsedFeatures = %v, want [1]", used)
	}
}

func TestGradientBoostingRegression(t *testing.T) {
	// Nonlinear target: y = sin-ish step surface a linear model can't fit.
	r := NewRand(6)
	n := 800
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64()*10, r.Float64()*10
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Floor(a/2)*3 + math.Floor(b/3)*2
	}
	g := &GradientBoosting{NTrees: 80, MaxDepth: 4}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, n)
	g.PredictInto(x, pred)
	if rmse := RMSE(pred, y); rmse > 1.0 {
		t.Errorf("GBM RMSE = %v, want < 1.0", rmse)
	}
	// GBM must beat a linear fit on this target by a clear margin.
	lr := &LinearRegression{}
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lp := make([]float64, n)
	lr.PredictInto(x, lp)
	if RMSE(pred, y) > RMSE(lp, y)/2 {
		t.Errorf("GBM (%v) should clearly beat linear (%v)", RMSE(pred, y), RMSE(lp, y))
	}
}

func TestGradientBoostingLogistic(t *testing.T) {
	// XOR-ish pattern: linearly inseparable.
	r := NewRand(8)
	n := 600
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	g := &GradientBoosting{NTrees: 60, MaxDepth: 3, Loss: LossLogistic}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, n)
	g.PredictInto(x, pred)
	for _, p := range pred {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
	}
	if acc := Accuracy(pred, y); acc < 0.9 {
		t.Errorf("accuracy = %v, want >= 0.9 on XOR", acc)
	}
}

func TestGradientBoostingUsedFeatures(t *testing.T) {
	r := NewRand(9)
	n := 300
	x := NewMatrix(n, 5)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = 5 * x.At(i, 2) // only feature 2 matters
	}
	g := &GradientBoosting{NTrees: 20, MaxDepth: 2}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	used := g.usedFeatures()
	for _, f := range used {
		if f != 2 {
			// Small spurious splits are possible but feature 2 must dominate.
			t.Logf("note: spurious feature %d used", f)
		}
	}
	found := false
	for _, f := range used {
		if f == 2 {
			found = true
		}
	}
	if !found {
		t.Error("feature 2 should be used")
	}
}

// Property: ensemble prediction equals base + rate * sum of tree predictions.
func TestGBMDecompositionProperty(t *testing.T) {
	x, y := synthLinear(200, 0.3, 11)
	g := &GradientBoosting{NTrees: 15, MaxDepth: 3}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		row := []float64{a, b}
		want := g.Base
		for _, tr := range g.Trees {
			want += 0.1 * tr.PredictRow(row)
		}
		return almostEq(g.PredictRow(row), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 4}); got != 2 {
		t.Errorf("MSE = %v, want 2", got)
	}
	if got := Accuracy([]float64{0.9, 0.2, 0.7}, []float64{1, 0, 0}); !almostEq(got, 2.0/3, 1e-12) {
		t.Errorf("Accuracy = %v", got)
	}
	auc, err := rocAUC([]float64{0.1, 0.4, 0.35, 0.8}, []float64{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(auc, 0.75, 1e-12) {
		t.Errorf("AUC = %v, want 0.75", auc)
	}
	if _, err := rocAUC([]float64{0.5}, []float64{1}); err == nil {
		t.Error("single-class AUC should error")
	}
	if _, err := rocAUC([]float64{0.5, 0.5}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestTrainTestSplit(t *testing.T) {
	train, test := trainTestSplit(1000, 0.25, 42)
	if len(train)+len(test) != 1000 {
		t.Fatal("split must partition")
	}
	frac := float64(len(test)) / 1000
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("test fraction = %v, want ~0.25", frac)
	}
	// Deterministic.
	train2, _ := trainTestSplit(1000, 0.25, 42)
	if len(train2) != len(train) {
		t.Error("split not deterministic")
	}
}
