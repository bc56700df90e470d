package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 5)
	m.Set(1, 1, -2)
	if got := m.At(0, 2); got != 5 {
		t.Errorf("At(0,2) = %v, want 5", got)
	}
	if got := m.Row(1)[1]; got != -2 {
		t.Errorf("Row(1)[1] = %v, want -2", got)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone is not a deep copy")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Errorf("unexpected matrix %+v", m)
	}
	if _, err := matrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
	empty, err := matrixFromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Errorf("empty input: %v %v", empty, err)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := matrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMatMul(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := matrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := matMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("matMul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	matMul(a, b)
}

func TestMulVec(t *testing.T) {
	m, _ := matrixFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := m.mulVec([]float64{2, 1, 1})
	if got[0] != 4 || got[1] != 3 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestGramMatchesMatMul(t *testing.T) {
	r := NewRand(7)
	m := NewMatrix(13, 5)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	g := m.gram()
	ref := matMul(m.transpose(), m)
	for i := range g.Data {
		if !almostEq(g.Data[i], ref.Data[i], 1e-9) {
			t.Fatalf("Gram differs from X^T X at %d: %v vs %v", i, g.Data[i], ref.Data[i])
		}
	}
}

func TestSolveSPD(t *testing.T) {
	// A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11]
	a, _ := matrixFromRows([][]float64{{4, 1}, {1, 3}})
	x, err := SolveSPD(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1.0/11, 1e-12) || !almostEq(x[1], 7.0/11, 1e-12) {
		t.Errorf("SolveSPD = %v", x)
	}
}

func TestSolveSPDSingular(t *testing.T) {
	a, _ := matrixFromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := SolveSPD(a, []float64{1, 1}); err == nil {
		t.Error("singular system should error")
	}
}

func TestSolveSPDShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveSPD(a, []float64{1, 2}); err == nil {
		t.Error("non-square system should error")
	}
}

// Property: for random SPD systems built as G = X^T X + I, the solution
// satisfies ||G x - b|| ~ 0.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRand(uint64(seed) + 1)
		n := 2 + r.Intn(6)
		x := NewMatrix(n+3, n)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64()
		}
		g := x.gram()
		for i := 0; i < n; i++ {
			g.Set(i, i, g.At(i, i)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		sol, err := SolveSPD(g, b)
		if err != nil {
			return false
		}
		res := g.mulVec(sol)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSigmoidLogitInverse(t *testing.T) {
	for _, z := range []float64{-30, -5, -1, 0, 0.5, 3, 20} {
		p := Sigmoid(z)
		if p <= 0 || p >= 1 {
			t.Fatalf("Sigmoid(%v) = %v out of (0,1)", z, p)
		}
		if z > -20 && z < 20 && !almostEq(Logit(p), z, 1e-6) {
			t.Errorf("Logit(Sigmoid(%v)) = %v", z, Logit(p))
		}
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice mean/variance should be 0")
	}
}
