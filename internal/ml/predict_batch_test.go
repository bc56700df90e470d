package ml

import (
	"math/rand"
	"testing"
)

// synthMatrix builds a deterministic random feature matrix.
func synthMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func synthLabels(x *Matrix, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, x.Rows)
	for i := range y {
		if x.At(i, 0)+0.5*x.At(i, 1)+0.1*rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	return y
}

// TestTreeBatchRowEquivalence pins the vectorized batch walk to the scalar
// PredictRow walk bit for bit.
func TestTreeBatchRowEquivalence(t *testing.T) {
	x := synthMatrix(500, 6, 1)
	y := synthLabels(x, 2)

	tree := &DecisionTree{MaxDepth: 7}
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt := synthMatrix(333, 6, 3)

	batch := make([]float64, xt.Rows)
	tree.PredictInto(xt, batch)
	for i := 0; i < xt.Rows; i++ {
		want := tree.PredictRow(xt.Row(i))
		if batch[i] != want {
			t.Fatalf("row %d: PredictInto %v != PredictRow %v", i, batch[i], want)
		}
	}
}

// TestGBMBatchRowEquivalence does the same for the boosted ensemble, for
// both losses (raw scores and sigmoid-squashed probabilities).
func TestGBMBatchRowEquivalence(t *testing.T) {
	x := synthMatrix(400, 5, 4)
	y := synthLabels(x, 5)

	for _, loss := range []GBMLoss{LossSquared, LossLogistic} {
		g := &GradientBoosting{NTrees: 40, MaxDepth: 3, Loss: loss}
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		xt := synthMatrix(257, 5, 6)

		batch := make([]float64, xt.Rows)
		g.PredictInto(xt, batch)
		for i := 0; i < xt.Rows; i++ {
			want := g.PredictRow(xt.Row(i))
			if batch[i] != want {
				t.Fatalf("loss %d row %d: PredictInto %v != PredictRow %v", loss, i, batch[i], want)
			}
		}
	}
}

// BenchmarkTreeEnsemblePredict compares per-row dispatch against the
// vectorized batch walk over a realistic GBM.
func BenchmarkTreeEnsemblePredict(b *testing.B) {
	x := synthMatrix(2000, 8, 7)
	y := synthLabels(x, 8)
	g := &GradientBoosting{NTrees: 60, MaxDepth: 4, Loss: LossLogistic}
	if err := g.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	xt := synthMatrix(4096, 8, 9)
	out := make([]float64, xt.Rows)

	b.Run("mode=row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < xt.Rows; r++ {
				out[r] = g.PredictRow(xt.Row(r))
			}
		}
	})
	b.Run("mode=batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.PredictInto(xt, out)
		}
	})
}
