package engine

import (
	"math/rand"
	"testing"
)

// Kernel-level benchmarks: a predicate reduced to a selection vector and an
// arithmetic projection, each over 128K rows:
//
//	go test ./internal/engine -bench 'Expression|PredicateMask' -benchmem

func benchRowSet(n int) *RowSet {
	r := rand.New(rand.NewSource(11))
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Intn(1000))
		floats[i] = r.Float64() * 1000
		strs[i] = words[r.Intn(len(words))]
	}
	rs, err := NewRowSet(
		Schema{{Name: "a", Type: TypeInt}, {Name: "v", Type: TypeFloat}, {Name: "s", Type: TypeString}},
		[]Column{IntColumn(ints), FloatColumn(floats), StringColumn(strs)},
	)
	if err != nil {
		panic(err)
	}
	return rs
}

const benchPred = "v > 985.0 AND a <> 500 AND s <> 'beta'"

func BenchmarkPredicateMaskKernel(b *testing.B) {
	rs := benchRowSet(1 << 17)
	e := parseTestExpr(b, benchPred)
	fn, err := compileVec(e, rs.Schema, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := fn(rs)
		if err != nil {
			b.Fatal(err)
		}
		sel := appendTrue(nil, v, rs.N, 0)
		_ = sel
	}
}

const benchProj = "(v * 1.07 + 2.0) / (a + 1)"

func BenchmarkExpressionKernel(b *testing.B) {
	rs := benchRowSet(1 << 17)
	e := parseTestExpr(b, benchProj)
	fn, err := compileVec(e, rs.Schema, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := fn(rs)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, f := range v.Floats {
			sum += f
		}
		_ = sum
	}
}
