// Package ml is a from-scratch training library in the spirit of
// scikit-learn: dense linear algebra, linear and logistic regression, CART
// decision trees, gradient-boosted ensembles, column featurizers and a
// Pipeline abstraction that chains featurization with a final predictor.
//
// It plays two roles in the Flock reproduction: it is the model *producer*
// for the rest of the stack (pipelines are exported to internal/onnx graphs
// and deployed into the engine), and its deliberately interpreted,
// row-oriented Predict path is the "scikit-learn" baseline of Figure 4.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// matrixFromRows builds a matrix by copying the given rows, which must all
// have the same length.
func matrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("ml: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// transpose returns the transpose of m as a new matrix.
func (m *Matrix) transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// matMul returns a*b. It panics if the inner dimensions disagree, matching
// the behaviour of out-of-range slice indexing for programmer errors.
func matMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("ml: matMul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// mulVec returns m*v as a new vector.
func (m *Matrix) mulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("ml: MulVec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// gram returns X^T X (a Cols x Cols symmetric positive semidefinite matrix).
func (m *Matrix) gram() *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a, va := range row {
			if va == 0 {
				continue
			}
			grow := g.Row(a)
			for b, vb := range row {
				grow[b] += va * vb
			}
		}
	}
	return g
}

// ErrSingular reports that a linear system could not be solved because the
// matrix is singular (or numerically indistinguishable from singular).
var ErrSingular = errors.New("ml: matrix is singular")

// SolveSPD solves A x = b for symmetric positive-definite A using Cholesky
// decomposition. A is not modified.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("ml: SolveSPD shape mismatch %dx%d, b=%d", a.Rows, a.Cols, len(b))
	}
	// Cholesky factorization A = L L^T, storing L in the lower triangle.
	l := a.Clone()
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// Dot returns the dot product of a and b.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - mu
		s += d * d
	}
	return s / float64(len(xs))
}

// Sigmoid is the standard logistic function.
func Sigmoid(z float64) float64 {
	// Split on sign for numerical stability at large |z|.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Logit is the inverse of Sigmoid: Logit(Sigmoid(z)) == z for p in (0, 1).
func Logit(p float64) float64 { return math.Log(p / (1 - p)) }
