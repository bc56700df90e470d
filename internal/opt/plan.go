// Package opt is the query + cross optimizer: it lowers a parsed SELECT into
// a logical plan and applies both classical relational rules (predicate
// pushdown into scans; projection pruning: every Scan is annotated with the
// columns the plan above it reads, see pruneScans) and the paper's
// cross-optimizations between SQL and ML (§4.1): UDF inlining of PREDICT
// into a vectorized operator, predicate push-down below inference, predicate
// push-up into the model, and model-sparsity input pruning. The prune pass
// runs last, so a model input the cross-optimizer dropped is a column the
// scan never copies. Stats-driven model compression depends on data, so the
// planner only marks where it applies (Predict.Compress) and the executor
// runs it over the snapshot it scans: a plan depends only on the schema and
// the models.
//
// The optimizer manipulates the sql AST and onnx graphs only; physical
// execution lives in internal/engine, which interprets the plan.
package opt

import (
	"fmt"
	"strings"

	"repro/internal/onnx"
	"repro/internal/sql"
)

// Level selects how much of the optimizer is enabled; the levels correspond
// to the Figure-4 configurations.
type Level int

// Optimization levels.
const (
	// LevelUDF disables all ML-aware planning: PREDICT calls are evaluated
	// row-at-a-time inside scalar expressions, like an external UDF.
	LevelUDF Level = iota
	// LevelVectorized extracts PREDICT into a vectorized operator
	// (UDF inlining), single-threaded.
	LevelVectorized
	// LevelParallel adds partitioned parallel execution of scans, filters
	// and inference (the in-DBMS "SONNX" configuration).
	LevelParallel
	// LevelFull adds the cross-optimizations: predicate push-down below
	// inference, predicate push-up into the model, input pruning from
	// model sparsity, and model compression from table statistics
	// ("SONNX-ext").
	LevelFull
)

func (l Level) String() string {
	switch l {
	case LevelUDF:
		return "udf"
	case LevelVectorized:
		return "vectorized"
	case LevelParallel:
		return "parallel"
	case LevelFull:
		return "full"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ModelProvider resolves deployed model names to graphs. Implemented by
// core.ModelRegistry.
type ModelProvider interface {
	GraphFor(name string) (*onnx.Graph, error)
}

// CatalogInfo exposes the table metadata the optimizer needs. Implemented
// by engine.DB.
type CatalogInfo interface {
	// TableColumns returns the column names of a table, or an error if the
	// table does not exist.
	TableColumns(table string) ([]string, error)
}

// Node is a logical plan operator.
type Node interface{ node() }

// Scan reads a base table. Filters holds conjuncts pushed down to the
// scan; Version >= 0 requests a time-travel read of a retained snapshot.
type Scan struct {
	Table   string
	Alias   string // qualifier used in the query ("" when none)
	Filters []sql.Expr
	Version int64 // -1 means current
	// Cols names the columns the scan emits, in table order: the ones the
	// plan above it reads (Filters are evaluated against the whole table and
	// need not be listed). nil means every column — SELECT *, or a Scan
	// built by hand — and is distinct from an empty list, which emits rows
	// without columns (count(*)). Set once by pruneScans at plan time and
	// read-only afterwards: cached plans are executed concurrently.
	Cols []string
	// tableCols is the catalog's column list at plan time, kept so that the
	// prune pass can spell Cols in table order without a second lookup.
	tableCols []string
	// padded marks a LEFT join's right (null-supplying) side: a WHERE
	// conjunct over it must see the padded rows, so it filters above the join.
	padded bool
}

// Filter applies residual conjuncts.
type Filter struct {
	Input Node
	Preds []sql.Expr
}

// CompareSpec fuses a threshold comparison into a Predict operator: only
// rows whose score satisfies (score Op Threshold) survive.
type CompareSpec struct {
	Op        string // one of = <> < <= > >=
	Threshold float64
}

// Predict scores rows with a deployed model, appending the score as column
// OutName. Args must be column references after planning.
type Predict struct {
	Input   Node
	Model   string
	Graph   *onnx.Graph // possibly rewritten by cross-optimizations
	Args    []sql.Expr
	OutName string
	// Compare, when non-nil, fuses a threshold filter into the operator.
	Compare *CompareSpec
	// Compress marks a model the executor specializes, when it opens the
	// cursor, to the statistics of the snapshot its scan reads
	// (onnx.CompressWithStats): set at LevelFull when the Predict sits on a
	// current-version scan through Predict and Filter nodes only. The plan
	// holds no statistics, so it stays valid across writes.
	Compress bool
}

// Join is an equi-join with an ON condition.
type Join struct {
	Left, Right Node
	Type        sql.JoinType
	On          sql.Expr
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string // count, sum, avg, min, max
	Star     bool
	Distinct bool
	Arg      sql.Expr // nil for count(*)
	OutName  string
}

// Aggregate groups by GroupBy and computes Aggs. GroupNames name the
// group-by output columns.
type Aggregate struct {
	Input      Node
	GroupBy    []sql.Expr
	GroupNames []string
	Aggs       []AggSpec
}

// Project computes the final output expressions.
type Project struct {
	Input Node
	Exprs []sql.Expr
	Names []string
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

// SortKey is one ORDER BY key over the input schema.
type SortKey struct {
	Expr sql.Expr
	Desc bool
}

// Sort orders rows. TopK > 0 records the LIMIT stacked above it: only the
// first TopK rows of the order are ever read, so the executor may select
// them instead of sorting everything.
type Sort struct {
	Input Node
	Keys  []SortKey
	TopK  int64
}

// Limit truncates to N rows.
type Limit struct {
	Input Node
	N     int64
}

func (*Scan) node()      {}
func (*Filter) node()    {}
func (*Predict) node()   {}
func (*Join) node()      {}
func (*Aggregate) node() {}
func (*Project) node()   {}
func (*Distinct) node()  {}
func (*Sort) node()      {}
func (*Limit) node()     {}

// Inputs returns the children of n, left before right: none for a Scan or a
// nil node. Plan walks that only look for a node type recurse through it.
//
//flockvet:ignore deadexport the child list of every plan node: the plan walks of the engine and opt tests share it, so a new node type cannot hide from them
func Inputs(n Node) []Node {
	switch x := n.(type) {
	case *Filter:
		return []Node{x.Input}
	case *Predict:
		return []Node{x.Input}
	case *Join:
		return []Node{x.Left, x.Right}
	case *Aggregate:
		return []Node{x.Input}
	case *Project:
		return []Node{x.Input}
	case *Distinct:
		return []Node{x.Input}
	case *Sort:
		return []Node{x.Input}
	case *Limit:
		return []Node{x.Input}
	}
	return nil
}

// Report records which optimizations fired, for ablation benches and the
// EXPLAIN-style output in examples.
type Report struct {
	Level             Level
	PredictsExtracted int
	PushedDown        int // conjuncts pushed below inference
	PushedUp          bool
	PrunedInputs      []string // input columns dropped from the model
	// Parallelism is the morsel worker cap for this plan (1 below
	// LevelParallel), 0 when unset. An EXPLAIN caller stamps it on a fresh
	// plan it owns (engine.ExecOptions.MaxWorkers); a cached plan is shared
	// across sessions and is never written.
	Parallelism int
}

// String renders a compact summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%s predicts=%d pushdown=%d", r.Level, r.PredictsExtracted, r.PushedDown)
	if r.Parallelism > 0 {
		fmt.Fprintf(&b, " workers=%d", r.Parallelism)
	}
	if r.PushedUp {
		b.WriteString(" pushup")
	}
	if len(r.PrunedInputs) > 0 {
		fmt.Fprintf(&b, " pruned=%v", r.PrunedInputs)
	}
	return b.String()
}

// Plan is the output of the optimizer.
type Plan struct {
	Root   Node
	Report Report
}
