package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"repro/internal/opt"
	"repro/internal/sql"
)

// ExecOptions controls physical execution.
type ExecOptions struct {
	// Level is the optimization level (see opt.Level).
	Level opt.Level
	// Parallelism caps worker count; 0 means GOMAXPROCS.
	Parallelism int
	// Counters, when non-nil, collects execution statistics (rows scanned);
	// used by tests pinning LIMIT pushdown and by operational probes.
	Counters *ExecCounters
}

// MaxWorkers resolves the option set's morsel worker cap: 1 below
// LevelParallel, else the explicit Parallelism (GOMAXPROCS when unset).
// Individual operators may use fewer workers on small inputs.
func (o ExecOptions) MaxWorkers() int {
	if o.Level < opt.LevelParallel {
		return 1
	}
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parallelThreshold is the minimum row count before partitioned parallel
// execution pays for itself (the engine's "physical operator selection").
const parallelThreshold = 8192

// predictChunk is the vectorized inference batch size.
const predictChunk = 4096

// cancelBatchRows is the row granularity of cancellation checkpoints inside
// long kernel loops: a canceled query aborts at the next batch boundary, so
// the hot path stays branch-free within a batch.
const cancelBatchRows = 16384

type executor struct {
	ctx context.Context
	db  *DB
	o   ExecOptions
	env *compileEnv
}

// checkCtx is the cancellation checkpoint: it polls the query context
// without blocking. A nil context never cancels.
func (ex *executor) checkCtx() error { return ctxCheck(ex.ctx) }

// workers resolves the worker count for an n-row operator input: 1 below
// LevelParallel or the size threshold, otherwise the ctx worker cap
// (ExecOptions.Parallelism, GOMAXPROCS when unset) clamped so every worker
// has at least one morsel to pull. Every parallel operator sizes its pool
// through here, so the cap applies uniformly across the tree.
func (ex *executor) workers(n int) int {
	if ex.o.Level < opt.LevelParallel || n < parallelThreshold {
		return 1
	}
	w := ex.o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if m := morselCount(n); w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (ex *executor) exec(node opt.Node) (*RowSet, error) {
	if err := ex.checkCtx(); err != nil {
		return nil, err
	}
	switch n := node.(type) {
	case nil:
		return &RowSet{N: 1}, nil // FROM-less SELECT
	case *opt.Scan:
		return ex.execScan(n)
	case *opt.Filter:
		in, err := ex.exec(n.Input)
		if err != nil {
			return nil, err
		}
		return ex.filterRowSet(in, opt.AndAll(n.Preds))
	case *opt.Predict:
		return ex.execPredict(n)
	case *opt.Join:
		return ex.execJoin(n)
	case *opt.Aggregate:
		return ex.execAggregate(n)
	case *opt.Project:
		return ex.execProject(n)
	case *opt.Distinct:
		return ex.execDistinct(n)
	case *opt.Sort:
		return ex.execSort(n)
	case *opt.Limit:
		in, err := ex.exec(n.Input)
		if err != nil {
			return nil, err
		}
		if int64(in.N) <= n.N {
			return in, nil
		}
		return in.Slice(0, int(n.N)), nil
	}
	return nil, fmt.Errorf("engine: unknown plan node %T", node)
}

// execScan materializes a scan: the shared snapshot (scanSource, which
// stream cursors also open), pushed-down filters evaluated over the whole
// zero-copy snapshot — a compiled predicate reads only the columns it names —
// and a gather of just the columns the plan above reads (n.Cols).
func (ex *executor) execScan(n *opt.Scan) (*RowSet, error) {
	rs, err := ex.scanSource(n)
	if err != nil {
		return nil, err
	}
	if c := ex.o.Counters; c != nil {
		c.RowsScanned.Add(int64(rs.N))
	}
	out := rs.pick(n.Cols)
	if len(n.Filters) == 0 {
		return out, nil
	}
	fn, err := compileVec(opt.AndAll(n.Filters), rs.Schema, ex.env)
	if err != nil {
		return nil, err
	}
	return ex.filterGather(rs, out, fn)
}

// filterRowSet evaluates pred as a batch kernel over rs and gathers the
// surviving rows.
func (ex *executor) filterRowSet(rs *RowSet, pred sql.Expr) (*RowSet, error) {
	if pred == nil {
		return rs, nil
	}
	fn, err := compileVec(pred, rs.Schema, ex.env)
	if err != nil {
		return nil, err
	}
	return ex.filterGather(rs, rs, fn)
}

// filterGather runs the compiled predicate over in and gathers the surviving
// rows of out — in itself, or a pick of its columns (a scan copies only what
// is read above it). Workers pull morsels from a shared queue (so a skewed
// predicate cannot idle part of the pool), buffer one pooled selection
// vector per morsel, and the buffers concatenate in morsel order — parallel
// output row order is identical to serial.
func (ex *executor) filterGather(in, out *RowSet, fn vecFunc) (*RowSet, error) {
	sels, err := ex.filterMorsels(fn, in, ex.workers(in.N))
	release := func() {
		for _, s := range sels {
			if s != nil {
				putSel(s)
			}
		}
	}
	if err != nil {
		release()
		return nil, err
	}
	total := 0
	for _, s := range sels {
		total += len(*s)
	}
	if total == in.N {
		release()
		return out, nil
	}
	if len(out.Cols) == 0 {
		// Nothing above reads a column (count(*)): the row count is the answer.
		release()
		return &RowSet{Schema: out.Schema, N: total}, nil
	}
	sel := make([]int32, 0, total)
	for _, s := range sels {
		sel = append(sel, *s...)
	}
	release()
	if c := ex.o.Counters; c != nil {
		c.CellsGathered.Add(int64(total) * int64(len(out.Cols)))
	}
	return out.Gather(sel), nil
}

// filterMorsels runs the compiled predicate over every morsel of rs on w
// workers, returning one pooled selection vector per morsel (absolute row
// ids). The context is polled before each morsel, so a canceled query stops
// within one morsel of work; the caller owns (and must pool-return) the
// buffers, even on error.
func (ex *executor) filterMorsels(fn vecFunc, rs *RowSet, w int) ([]*[]int32, error) {
	sels := make([]*[]int32, morselCount(rs.N))
	err := ex.runMorsels(rs.N, w, func(wid, m, lo, hi int) error {
		sp := getSel()
		sels[m] = sp
		part := rs.Slice(lo, hi)
		v, err := fn(part)
		if err == nil {
			err = v.pendingErr(hi - lo)
		}
		if err != nil {
			return err
		}
		*sp = appendTrue((*sp)[:0], v, hi-lo, lo)
		return nil
	})
	return sels, err
}

// execPredict runs the vectorized inference operator: it binds the argument
// columns to the model graph's inputs, scores in chunks (in parallel at
// LevelParallel and above), optionally applies a fused threshold compare,
// and appends the score column. The operator body lives in predictOp
// (cursor.go) so the streaming path shares it batch-by-batch.
func (ex *executor) execPredict(n *opt.Predict) (*RowSet, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	op, err := newPredictOp(ex, n, in.Schema)
	if err != nil {
		return nil, err
	}
	return op.apply(ex, in)
}

func (ex *executor) execJoin(n *opt.Join) (*RowSet, error) {
	left, err := ex.exec(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.exec(n.Right)
	if err != nil {
		return nil, err
	}
	combined := append(append(Schema(nil), left.Schema...), right.Schema...)

	// Split the ON condition into equi-key pairs and residual predicates.
	var leftKeys, rightKeys []int
	var residual []sql.Expr
	for _, c := range opt.SplitConjuncts(n.On) {
		b, ok := c.(*sql.Binary)
		if ok && b.Op == "=" {
			if li, ri, ok := resolvePair(b.L, b.R, left.Schema, right.Schema); ok {
				leftKeys = append(leftKeys, li)
				rightKeys = append(rightKeys, ri)
				continue
			}
		}
		residual = append(residual, c)
	}
	if len(leftKeys) == 0 && n.On != nil {
		return nil, fmt.Errorf("engine: join requires at least one equality condition")
	}
	if n.On == nil {
		// Cross join: guard against blow-up.
		if left.N*right.N > 4_000_000 {
			return nil, fmt.Errorf("engine: refusing cross join of %d x %d rows", left.N, right.N)
		}
		var lsel, rsel []int32
		for l := 0; l < left.N; l++ {
			if l%cancelBatchRows == 0 {
				if err := ex.checkCtx(); err != nil {
					return nil, err
				}
			}
			for r := 0; r < right.N; r++ {
				lsel = append(lsel, int32(l))
				rsel = append(rsel, int32(r))
			}
		}
		return ex.materializeJoin(left, right, combined, lsel, rsel, residual, nil)
	}

	// Hash the right side with the typed multi-column table: keys are
	// compared column-wise (int/float keys numerically), no string encoding.
	leftVecs := make([]*Vec, len(leftKeys))
	rightVecs := make([]*Vec, len(rightKeys))
	for i := range leftKeys {
		leftVecs[i] = colVec(&left.Cols[leftKeys[i]])
		rightVecs[i] = colVec(&right.Cols[rightKeys[i]])
	}
	modes, comparable := pairKeyModes(leftVecs, rightVecs)
	var lsel, rsel []int32
	var leftUnmatched []int32
	if !comparable {
		// Some key pair can never be equal (e.g. text vs int), so no row
		// matches; LEFT JOIN still emits every left row.
		if n.Type == sql.JoinLeft {
			for l := 0; l < left.N; l++ {
				leftUnmatched = append(leftUnmatched, int32(l))
			}
		}
		return ex.materializeJoin(left, right, combined, lsel, rsel, residual, leftUnmatched)
	}
	jt, err := ex.buildJoinIndex(rightVecs, right.N, modes)
	if err != nil {
		return nil, err
	}
	// Morsel-parallel probe: workers pull probe-side morsels and buffer their
	// matched pairs (and unmatched left rows) per morsel; the buffers
	// concatenate in morsel order, so parallel output is identical to the
	// serial probe loop.
	type probeOut struct {
		lsel, rsel, unmatched []int32
	}
	w := ex.workers(left.N)
	outs := make([]probeOut, morselCount(left.N))
	err = ex.runMorsels(left.N, w, func(wid, m, lo, hi int) error {
		var out probeOut
		mp := getSel()
		matches := *mp
		for l := lo; l < hi; l++ {
			matches = jt.probe(leftVecs, l, matches[:0])
			if len(matches) == 0 {
				if n.Type == sql.JoinLeft {
					out.unmatched = append(out.unmatched, int32(l))
				}
				continue
			}
			for _, r := range matches {
				out.lsel = append(out.lsel, int32(l))
				out.rsel = append(out.rsel, r)
			}
		}
		*mp = matches
		putSel(mp)
		outs[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	pairs := 0
	unmatched := 0
	for i := range outs {
		pairs += len(outs[i].lsel)
		unmatched += len(outs[i].unmatched)
	}
	lsel = make([]int32, 0, pairs)
	rsel = make([]int32, 0, pairs)
	if unmatched > 0 {
		leftUnmatched = make([]int32, 0, unmatched)
	}
	for i := range outs {
		lsel = append(lsel, outs[i].lsel...)
		rsel = append(rsel, outs[i].rsel...)
		leftUnmatched = append(leftUnmatched, outs[i].unmatched...)
	}
	return ex.materializeJoin(left, right, combined, lsel, rsel, residual, leftUnmatched)
}

// materializeJoin gathers the matched pairs, applies residual predicates,
// and appends zero-padded unmatched left rows for LEFT JOIN.
func (ex *executor) materializeJoin(left, right *RowSet, schema Schema,
	lsel, rsel []int32, residual []sql.Expr, leftUnmatched []int32) (*RowSet, error) {

	lpart := left.Gather(lsel)
	rpart := right.Gather(rsel)
	out := &RowSet{Schema: schema, Cols: append(lpart.Cols, rpart.Cols...), N: len(lsel)}
	if len(residual) > 0 {
		var err error
		out, err = ex.filterRowSet(out, opt.AndAll(residual))
		if err != nil {
			return nil, err
		}
	}
	if len(leftUnmatched) > 0 {
		// LEFT JOIN unmatched rows: right columns are zero-valued (the
		// engine stores no NULL bitmap; documented limitation).
		lpad := left.Gather(leftUnmatched)
		padCols := make([]Column, len(right.Cols))
		for i := range right.Cols {
			padCols[i] = NewColumn(right.Cols[i].Type)
			for k := 0; k < len(leftUnmatched); k++ {
				_ = padCols[i].Append(NullValue())
			}
		}
		merged := &RowSet{Schema: schema, N: out.N + len(leftUnmatched)}
		merged.Cols = make([]Column, len(schema))
		for i := range schema {
			var a, b Column
			if i < len(left.Cols) {
				a, b = out.Cols[i], lpad.Cols[i]
			} else {
				a, b = out.Cols[i], padCols[i-len(left.Cols)]
			}
			merged.Cols[i] = concatColumns(a, b)
		}
		return merged, nil
	}
	return out, nil
}

func concatColumns(a, b Column) Column {
	out := Column{Type: a.Type}
	switch a.Type {
	case TypeInt:
		out.Ints = append(append([]int64(nil), a.Ints...), b.Ints...)
	case TypeFloat:
		out.Floats = append(append([]float64(nil), a.Floats...), b.Floats...)
	case TypeString:
		out.Strs = append(append([]string(nil), a.Strs...), b.Strs...)
	case TypeBool:
		out.Bools = append(append([]bool(nil), a.Bools...), b.Bools...)
	}
	return out
}

// resolvePair tries to resolve l in the left schema and r in the right (or
// mirrored), returning the column indices.
func resolvePair(l, r sql.Expr, left, right Schema) (int, int, bool) {
	lc, ok1 := l.(*sql.ColRef)
	rc, ok2 := r.(*sql.ColRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if li, err := left.Resolve(lc.Table, lc.Name); err == nil {
		if ri, err := right.Resolve(rc.Table, rc.Name); err == nil {
			return li, ri, true
		}
	}
	if li, err := left.Resolve(rc.Table, rc.Name); err == nil {
		if ri, err := right.Resolve(lc.Table, lc.Name); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

// aggAcc holds the typed per-group accumulators of one aggregate spec.
// Group ids index every slice; only the fields the function needs are
// allocated.
type aggAcc struct {
	count    []int64
	sum      []float64
	seen     []bool
	minI     []int64
	minF     []float64
	minS     []string
	minB     []bool
	distinct map[distinctKey]bool
}

func (ex *executor) execAggregate(n *opt.Aggregate) (*RowSet, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}

	// Evaluate the group keys as whole columns, then hash them once into
	// dense group ids.
	keyVecs := make([]*Vec, len(n.GroupBy))
	for i, g := range n.GroupBy {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		fn, err := compileVec(g, in.Schema, ex.env)
		if err != nil {
			return nil, err
		}
		v, err := fn(in)
		if err != nil {
			return nil, err
		}
		if err := v.pendingErr(in.N); err != nil {
			return nil, err
		}
		keyVecs[i] = v.materialize(in.N)
	}

	if w := ex.workers(in.N); w > 1 {
		return ex.execAggregateParallel(n, in, keyVecs, w)
	}

	gt := buildGroupTable(keyVecs, in.N)
	G := len(gt.groupRows)
	if G == 0 && len(n.GroupBy) == 0 {
		G = 1 // global aggregate over empty input still yields one row
	}
	rg := gt.rowGroup

	accs := make([]*aggAcc, len(n.Aggs))
	for ai, spec := range n.Aggs {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		a := &aggAcc{}
		a.growCount(G)
		accs[ai] = a
		if spec.Arg == nil {
			if spec.Star {
				for _, g := range rg {
					a.count[g]++
				}
			}
			continue
		}
		av, err := ex.evalAggArg(spec, in)
		if err != nil {
			return nil, err
		}
		if spec.Distinct {
			a.distinct = make(map[distinctKey]bool)
		}
		a.grow(spec, av.Type, G)
		if err := accumulateRange(a, spec, av, rg, 0, in.N); err != nil {
			return nil, err
		}
	}
	return ex.buildAggOutput(n, keyVecs, gt.groupRows, accs, G)
}

// evalAggArg materializes one aggregate's argument column.
func (ex *executor) evalAggArg(spec opt.AggSpec, in *RowSet) (*Vec, error) {
	fn, err := compileVec(spec.Arg, in.Schema, ex.env)
	if err != nil {
		return nil, err
	}
	v, err := fn(in)
	if err != nil {
		return nil, err
	}
	if err := v.pendingErr(in.N); err != nil {
		return nil, err
	}
	return v.materialize(in.N), nil
}

// buildAggOutput boxes the per-group accumulators into the result rowset
// (shared by the serial and parallel aggregate paths).
func (ex *executor) buildAggOutput(n *opt.Aggregate, keyVecs []*Vec, groupRows []int32, accs []*aggAcc, G int) (*RowSet, error) {
	outSchema := make(Schema, 0, len(n.GroupNames)+len(n.Aggs))
	outCols := make([]Column, 0, len(n.GroupNames)+len(n.Aggs))
	// Group column types come from the first group's values.
	for i, name := range n.GroupNames {
		t := TypeString
		if len(groupRows) > 0 && !keyVecs[i].isNull(int(groupRows[0])) {
			t = keyVecs[i].Type
		}
		outSchema = append(outSchema, ColMeta{Name: name, Type: t})
		outCols = append(outCols, NewColumn(t))
	}
	for _, spec := range n.Aggs {
		t := TypeFloat
		if spec.Func == "count" {
			t = TypeInt
		}
		outSchema = append(outSchema, ColMeta{Name: spec.OutName, Type: t})
		outCols = append(outCols, NewColumn(t))
	}
	for g := 0; g < G; g++ {
		if g%cancelBatchRows == 0 {
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
		}
		for i := range n.GroupNames {
			if err := outCols[i].Append(keyVecs[i].valueAt(int(groupRows[g]))); err != nil {
				return nil, err
			}
		}
		for ai, spec := range n.Aggs {
			a := accs[ai]
			var v Value
			switch spec.Func {
			case "count":
				v = IntValue(a.count[g])
			case "sum":
				// a.sum is nil for sum(*): no argument was ever folded, so
				// the total is zero (matching the old aggState behavior).
				if a.sum == nil {
					v = FloatValue(0)
				} else {
					v = FloatValue(a.sum[g])
				}
			case "avg":
				if a.sum == nil || a.count[g] == 0 {
					v = FloatValue(0)
				} else {
					v = FloatValue(a.sum[g] / float64(a.count[g]))
				}
			case "min", "max":
				v = minMaxValue(a, g)
			default:
				return nil, fmt.Errorf("engine: unknown aggregate %q", spec.Func)
			}
			if v.Kind == TypeInt && outSchema[len(n.GroupNames)+ai].Type == TypeFloat {
				v = FloatValue(float64(v.I))
			}
			if err := outCols[len(n.GroupNames)+ai].Append(v); err != nil {
				return nil, err
			}
		}
	}
	return NewRowSet(outSchema, outCols)
}

// growCount extends the count accumulator to G groups.
func (a *aggAcc) growCount(G int) {
	for len(a.count) < G {
		a.count = append(a.count, 0)
	}
}

// grow extends every accumulator array the (func, type) pair needs to G
// groups, preserving existing group state. The serial path grows once to the
// final group count; parallel workers grow as their thread-local tables
// discover groups.
func (a *aggAcc) grow(spec opt.AggSpec, t ColType, G int) {
	a.growCount(G)
	switch spec.Func {
	case "sum", "avg":
		if t == TypeInt || t == TypeFloat || t == TypeBool {
			for len(a.sum) < G {
				a.sum = append(a.sum, 0)
			}
		}
	case "min", "max":
		for len(a.seen) < G {
			a.seen = append(a.seen, false)
		}
		switch t {
		case TypeInt:
			for len(a.minI) < G {
				a.minI = append(a.minI, 0)
			}
		case TypeFloat:
			for len(a.minF) < G {
				a.minF = append(a.minF, 0)
			}
		case TypeString:
			for len(a.minS) < G {
				a.minS = append(a.minS, "")
			}
		case TypeBool:
			for len(a.minB) < G {
				a.minB = append(a.minB, false)
			}
		}
	}
}

// accumulateRange folds rows [lo, hi) of one aggregate's argument column
// into its per-group accumulators with a typed inner loop; rg maps each row
// to its group id and the accumulators are already grown to cover every
// referenced group. NULLs are skipped; DISTINCT deduplicates per
// (group, value) through the typed key.
func accumulateRange(a *aggAcc, spec opt.AggSpec, av *Vec, rg []int32, lo, hi int) error {
	// skip reports whether row r is null or a distinct-duplicate, mirroring
	// the row interpreter's per-row checks.
	skip := func(r int) bool {
		if av.Nulls != nil && av.Nulls[r] {
			return true
		}
		if a.distinct != nil {
			k := distinctKeyAt(av, r, rg[r])
			if a.distinct[k] {
				return true
			}
			a.distinct[k] = true
		}
		return false
	}
	switch spec.Func {
	case "count":
		if a.distinct == nil && av.Nulls == nil {
			for r := lo; r < hi; r++ {
				a.count[rg[r]]++
			}
			return nil
		}
		for r := lo; r < hi; r++ {
			if skip(r) {
				continue
			}
			a.count[rg[r]]++
		}
	case "sum", "avg":
		switch av.Type {
		case TypeFloat:
			if a.distinct == nil && av.Nulls == nil {
				for r := lo; r < hi; r++ {
					g := rg[r]
					a.count[g]++
					a.sum[g] += av.Floats[r]
				}
				return nil
			}
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				a.count[rg[r]]++
				a.sum[rg[r]] += av.Floats[r]
			}
		case TypeInt:
			if a.distinct == nil && av.Nulls == nil {
				for r := lo; r < hi; r++ {
					g := rg[r]
					a.count[g]++
					a.sum[g] += float64(av.Ints[r])
				}
				return nil
			}
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				a.count[rg[r]]++
				a.sum[rg[r]] += float64(av.Ints[r])
			}
		case TypeBool:
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				a.count[rg[r]]++
				if av.Bools[r] {
					a.sum[rg[r]]++
				}
			}
		default:
			for r := lo; r < hi; r++ {
				if av.Nulls != nil && av.Nulls[r] {
					continue
				}
				return fmt.Errorf("engine: %s over %s", spec.Func, av.Type)
			}
		}
	case "min", "max":
		isMin := spec.Func == "min"
		switch av.Type {
		case TypeInt:
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				g := rg[r]
				a.count[g]++
				v := av.Ints[r]
				if !a.seen[g] || (isMin && v < a.minI[g]) || (!isMin && v > a.minI[g]) {
					a.minI[g] = v
				}
				a.seen[g] = true
			}
		case TypeFloat:
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				g := rg[r]
				a.count[g]++
				v := av.Floats[r]
				if !a.seen[g] || (isMin && v < a.minF[g]) || (!isMin && v > a.minF[g]) {
					a.minF[g] = v
				}
				a.seen[g] = true
			}
		case TypeString:
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				g := rg[r]
				a.count[g]++
				v := av.Strs[r]
				if !a.seen[g] || (isMin && v < a.minS[g]) || (!isMin && v > a.minS[g]) {
					a.minS[g] = v
				}
				a.seen[g] = true
			}
		case TypeBool:
			for r := lo; r < hi; r++ {
				if skip(r) {
					continue
				}
				g := rg[r]
				a.count[g]++
				v := av.Bools[r]
				if !a.seen[g] || (isMin && a.minB[g] && !v) || (!isMin && !a.minB[g] && v) {
					a.minB[g] = v
				}
				a.seen[g] = true
			}
		}
	default:
		// Unknown functions surface the same error at output time as the
		// interpreter did; just count.
		for r := lo; r < hi; r++ {
			if skip(r) {
				continue
			}
			a.count[rg[r]]++
		}
	}
	return nil
}

// minMaxValue boxes the min/max accumulator of group g (NULL when the group
// saw no non-null values).
func minMaxValue(a *aggAcc, g int) Value {
	// a.seen is nil for min(*)/max(*), which never fold a value.
	if a.seen == nil || !a.seen[g] {
		return NullValue()
	}
	switch {
	case a.minI != nil:
		return IntValue(a.minI[g])
	case a.minF != nil:
		return FloatValue(a.minF[g])
	case a.minS != nil:
		return StringValue(a.minS[g])
	case a.minB != nil:
		return BoolValue(a.minB[g])
	}
	return NullValue()
}

// execProject computes the output expressions; the operator body lives in
// projectOp (cursor.go) so the streaming path shares it batch-by-batch.
func (ex *executor) execProject(n *opt.Project) (*RowSet, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	op, err := newProjectOp(ex, n, in.Schema)
	if err != nil {
		return nil, err
	}
	return op.apply(ex, in)
}

func (ex *executor) execDistinct(n *opt.Distinct) (*RowSet, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	if in.N == 0 {
		return in, nil
	}
	// All columns are the key: the group table's first-occurrence rows are
	// exactly the distinct rows, in input order.
	vecs := make([]*Vec, len(in.Cols))
	for i := range in.Cols {
		vecs[i] = colVec(&in.Cols[i])
	}
	if w := ex.workers(in.N); w > 1 {
		// Thread-local tables over morsels, merged in first-occurrence order
		// — the same machinery as parallel GROUP BY without accumulators.
		groupRows, err := ex.parallelGroupRows(vecs, in.N, w)
		if err != nil {
			return nil, err
		}
		if len(groupRows) == in.N {
			return in, nil
		}
		return in.Gather(groupRows), nil
	}
	gt := buildGroupTable(vecs, in.N)
	if len(gt.groupRows) == in.N {
		return in, nil
	}
	return in.Gather(gt.groupRows), nil
}

func (ex *executor) execSort(n *opt.Sort) (*RowSet, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	// Evaluate each key once as a whole column; comparisons then read typed
	// slices instead of boxed per-row values.
	keyVecs := make([]*Vec, len(n.Keys))
	for i, k := range n.Keys {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		fn, err := compileVec(k.Expr, in.Schema, ex.env)
		if err != nil {
			return nil, err
		}
		v, err := fn(in)
		if err != nil {
			return nil, err
		}
		if err := v.pendingErr(in.N); err != nil {
			return nil, err
		}
		keyVecs[i] = v.materialize(in.N)
	}
	// Under a LIMIT smaller than the input, select the k first rows instead
	// of ordering all of them; both inputs to the choice are known here.
	if 0 < n.TopK && n.TopK < int64(in.N) {
		return ex.execTopK(in, n.Keys, keyVecs, int(n.TopK))
	}
	if w := ex.workers(in.N); w > 1 {
		return ex.execSortParallel(in, n.Keys, keyVecs, w)
	}
	sel := make([]int32, in.N)
	for i := range sel {
		sel[i] = int32(i)
	}
	// The comparator polls the context at batch granularity: sort.SliceStable
	// offers no early exit, so after a cancellation the comparator degrades
	// to a constant (cheap passes to completion) and the sort's result is
	// discarded — a huge ORDER BY can no longer pin a worker between key
	// materialization and gather.
	canceled := false
	sinceCheck := 0
	sort.SliceStable(sel, func(a, b int) bool {
		if canceled {
			return false
		}
		sinceCheck++
		if sinceCheck >= cancelBatchRows {
			sinceCheck = 0
			if ex.checkCtx() != nil {
				canceled = true
				return false
			}
		}
		return lessRows(keyVecs, n.Keys, int(sel[a]), int(sel[b]))
	})
	if canceled {
		return nil, ex.ctx.Err()
	}
	return in.Gather(sel), nil
}

// execTopK answers ORDER BY … LIMIT k without sorting the input. Rows are
// ranked by a total order — the sort keys, then input position — so the
// result is exactly the first k rows of the stable sort, whatever the worker
// count. Each of w contiguous chunks keeps its k first rows in a max-heap of
// row ids (the root is the row that would be cut next); the at most k·w
// survivors are sorted under the same order, cut to k, and only those rows
// are gathered.
func (ex *executor) execTopK(in *RowSet, keys []opt.SortKey, keyVecs []*Vec, k int) (*RowSet, error) {
	before := func(a, b int32) bool {
		if c := compareRows(keyVecs, keys, int(a), int(b)); c != 0 {
			return c < 0
		}
		return a < b
	}
	w := ex.workers(in.N)
	size := (in.N + w - 1) / w
	heaps := make([][]int32, (in.N+size-1)/size)
	err := ex.runTasks(len(heaps), w, func(_, ci int) error {
		lo, hi := ci*size, min((ci+1)*size, in.N)
		h := make([]int32, 0, min(k, hi-lo))
		for r := lo; r < hi; r++ {
			if (r-lo)%cancelBatchRows == 0 {
				if err := ex.checkCtx(); err != nil {
					return err
				}
			}
			if len(h) < k {
				h = append(h, int32(r))
				for i := len(h) - 1; i > 0; { // sift up
					parent := (i - 1) / 2
					if !before(h[parent], h[i]) {
						break
					}
					h[parent], h[i] = h[i], h[parent]
					i = parent
				}
				continue
			}
			// r comes after every row in the heap, so it displaces the root
			// only with strictly smaller keys: ties keep the earlier row.
			if !lessRows(keyVecs, keys, r, int(h[0])) {
				continue
			}
			h[0] = int32(r)
			for i := 0; ; { // sift down
				last := i
				if c := 2*i + 1; c < k && before(h[last], h[c]) {
					last = c
				}
				if c := 2*i + 2; c < k && before(h[last], h[c]) {
					last = c
				}
				if last == i {
					break
				}
				h[i], h[last] = h[last], h[i]
				i = last
			}
		}
		heaps[ci] = h
		return nil
	})
	if err != nil {
		return nil, err
	}
	cand := slices.Concat(heaps...)
	// Same checkpoint as the full sorts: once canceled the comparator turns
	// constant, the doomed sort finishes cheaply and its result is dropped.
	var cerr error
	sinceCheck := 0
	slices.SortFunc(cand, func(a, b int32) int {
		if cerr != nil {
			return 0
		}
		if sinceCheck++; sinceCheck >= cancelBatchRows {
			sinceCheck = 0
			if cerr = ex.checkCtx(); cerr != nil {
				return 0
			}
		}
		if before(a, b) {
			return -1
		}
		return 1
	})
	if cerr != nil {
		return nil, cerr
	}
	return in.Gather(cand[:k]), nil
}

// compareRows is the shared ORDER BY comparator core: it orders rows ra and
// rb under the sort keys (NULLs first, numeric kinds as float64, NaN after
// every number; DESC mirrors the whole order). Zero means the keys tie.
func compareRows(keyVecs []*Vec, keys []opt.SortKey, ra, rb int) int {
	for i, kv := range keyVecs {
		if c := vecCompareRows(kv, ra, rb); c != 0 {
			if keys[i].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// lessRows reports whether row ra sorts strictly before row rb.
func lessRows(keyVecs []*Vec, keys []opt.SortKey, ra, rb int) bool {
	return compareRows(keyVecs, keys, ra, rb) < 0
}

// inferType statically determines the result type of an expression.
func inferType(e sql.Expr, schema Schema) (ColType, error) {
	switch x := e.(type) {
	case *sql.ColRef:
		idx, err := schema.Resolve(x.Table, x.Name)
		if err != nil {
			return 0, err
		}
		return schema[idx].Type, nil
	case *sql.Lit:
		switch x.Kind {
		case sql.LitInt:
			return TypeInt, nil
		case sql.LitFloat:
			return TypeFloat, nil
		case sql.LitString:
			return TypeString, nil
		case sql.LitBool:
			return TypeBool, nil
		default:
			return TypeFloat, nil // NULL defaults to float storage
		}
	case *sql.Unary:
		if x.Op == "NOT" {
			return TypeBool, nil
		}
		return inferType(x.X, schema)
	case *sql.Binary:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return TypeBool, nil
		case "||":
			return TypeString, nil
		}
		if _, ok := x.R.(*sql.Interval); ok {
			return TypeString, nil
		}
		lt, err := inferType(x.L, schema)
		if err != nil {
			return 0, err
		}
		rt, err := inferType(x.R, schema)
		if err != nil {
			return 0, err
		}
		if lt == TypeInt && rt == TypeInt && x.Op != "/" {
			return TypeInt, nil
		}
		return TypeFloat, nil
	case *sql.Between, *sql.InList, *sql.Like, *sql.IsNull, *sql.Exists:
		return TypeBool, nil
	case *sql.Case:
		if len(x.Whens) > 0 {
			return inferType(x.Whens[0].Then, schema)
		}
		return TypeFloat, nil
	case *sql.FuncCall:
		switch x.Name {
		case "substring", "upper", "lower":
			return TypeString, nil
		case "length", "count":
			return TypeInt, nil
		default:
			return TypeFloat, nil
		}
	case *sql.Predict:
		return TypeFloat, nil
	}
	return TypeFloat, nil
}
