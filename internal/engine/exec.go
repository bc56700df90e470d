package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"

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

// exec runs a pipeline breaker — an operator that must see all of its input
// before it emits a row. Streamable nodes (Scan, Filter, Project, Predict,
// Limit) never reach it: openCursor peels them off and builds stream ops.
func (ex *executor) exec(node opt.Node) (*RowSet, error) {
	if err := ex.checkCtx(); err != nil {
		return nil, err
	}
	switch n := node.(type) {
	case nil:
		return &RowSet{N: 1}, nil // FROM-less SELECT
	case *opt.Join:
		return ex.execJoin(n)
	case *opt.Aggregate:
		return ex.execAggregate(n)
	case *opt.Distinct:
		return ex.execDistinct(n)
	case *opt.Sort:
		return ex.execSort(n)
	}
	return nil, fmt.Errorf("engine: unknown plan node %T", node)
}

// collect materializes a breaker's input the way ExecPlanContext
// materializes the root: it opens the input as a cursor and drains it with
// Collect. The cursor never leaves the executor, so it is not counted in
// CursorsOpen.
func (ex *executor) collect(node opt.Node) (*RowSet, error) {
	sc, err := ex.openCursor(node)
	if err != nil {
		return nil, err
	}
	return Collect(ex.ctx, sc)
}

// evalColumn evaluates e over the whole of in with one kernel call and
// materializes the result: the group keys, aggregate arguments and sort keys
// the breakers read row by row.
func (ex *executor) evalColumn(e sql.Expr, in *RowSet) (*Vec, error) {
	if err := ex.checkCtx(); err != nil {
		return nil, err
	}
	fn, err := compileVec(e, in.Schema, ex.env)
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

// filterGather runs the compiled predicate over in and gathers the surviving
// rows of out — in itself, or a pick of its columns (a scan copies only what
// is read above it). Workers pull morsels from a shared queue (so a skewed
// predicate cannot idle part of the pool), buffer one pooled selection
// vector per morsel, and the buffers concatenate in morsel order — the same
// rows in the same order at any worker count.
func (ex *executor) filterGather(in, out *RowSet, fn vecFunc) (*RowSet, error) {
	sels, err := ex.filterMorsels(fn, in, ex.workers(in.N))
	defer func() {
		for _, s := range sels {
			if s != nil {
				putSel(s)
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range sels {
		total += len(*s)
	}
	if total == in.N {
		return out, nil
	}
	if len(out.Cols) == 0 {
		// Nothing above reads a column (count(*)): the row count is the answer.
		return &RowSet{Schema: out.Schema, N: total}, nil
	}
	sel := make([]int32, 0, total)
	for _, s := range sels {
		sel = append(sel, *s...)
	}
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

func (ex *executor) execJoin(n *opt.Join) (*RowSet, error) {
	left, err := ex.collect(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.collect(n.Right)
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

	// Find the candidate pairs; finishJoin decides what they become.
	leftVecs := make([]*Vec, len(leftKeys))
	rightVecs := make([]*Vec, len(rightKeys))
	for i := range leftKeys {
		leftVecs[i] = colVec(&left.Cols[leftKeys[i]])
		rightVecs[i] = colVec(&right.Cols[rightKeys[i]])
	}
	modes, comparable := pairKeyModes(leftVecs, rightVecs)
	var lsel, rsel []int32
	switch {
	case n.On == nil:
		// Cross join: guard against blow-up.
		if left.N*right.N > 4_000_000 {
			return nil, fmt.Errorf("engine: refusing cross join of %d x %d rows", left.N, right.N)
		}
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
	case comparable:
		// Hash the right side with the typed multi-column table (keys
		// compared column-wise, int/float numerically) and probe it with
		// every left row. Otherwise some key pair can never be equal (e.g.
		// text vs int), so there are no pairs.
		if lsel, rsel, err = ex.probeJoin(leftVecs, rightVecs, left.N, right.N, modes); err != nil {
			return nil, err
		}
	}
	return ex.finishJoin(n.Type == sql.JoinLeft, left, right, combined, lsel, rsel, residual)
}

// probeJoin returns the key-matched pairs in probe-row order at any worker
// count: workers pull probe-side morsels and buffer their pairs per morsel,
// and the buffers concatenate in morsel order.
func (ex *executor) probeJoin(leftVecs, rightVecs []*Vec, leftN, rightN int, modes []keyMode) (lsel, rsel []int32, err error) {
	jt, err := ex.buildJoinIndex(rightVecs, rightN, modes)
	if err != nil {
		return nil, nil, err
	}
	type probeOut struct{ lsel, rsel []int32 }
	outs := make([]probeOut, morselCount(leftN))
	err = ex.runMorsels(leftN, ex.workers(leftN), func(wid, m, lo, hi int) error {
		var out probeOut
		mp := getSel()
		matches := *mp
		for l := lo; l < hi; l++ {
			matches = jt.probe(leftVecs, l, matches[:0])
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
		return nil, nil, err
	}
	pairs := 0
	for i := range outs {
		pairs += len(outs[i].lsel)
	}
	lsel = make([]int32, 0, pairs)
	rsel = make([]int32, 0, pairs)
	for i := range outs {
		lsel = append(lsel, outs[i].lsel...)
		rsel = append(rsel, outs[i].rsel...)
	}
	return lsel, rsel, nil
}

// finishJoin is every join's one finish. Of the candidate pairs (lsel[i],
// rsel[i]) it keeps those the ON residual accepts; a LEFT join then emits
// every left row that kept no pair, in left-row order, its right columns at
// their type's zero value (the engine stores no NULL yet). Whether a left
// row is padded is settled only after the residual, so a row whose key
// matches all fail it is padded, not dropped.
func (ex *executor) finishJoin(leftJoin bool, left, right *RowSet, schema Schema,
	lsel, rsel []int32, residual []sql.Expr) (*RowSet, error) {

	var cand *RowSet
	if len(residual) > 0 {
		fn, err := compileVec(opt.AndAll(residual), schema, ex.env)
		if err != nil {
			return nil, err
		}
		cand = joinRows(left, right, schema, lsel, rsel)
		sels, err := ex.filterMorsels(fn, cand, ex.workers(cand.N))
		k := 0 // compact the surviving pairs in place: sels ascend
		for _, s := range sels {
			if s == nil {
				continue
			}
			for _, i := range *s {
				lsel[k], rsel[k] = lsel[i], rsel[i]
				k++
			}
			putSel(s)
		}
		if err != nil {
			return nil, err
		}
		lsel, rsel = lsel[:k], rsel[:k]
	}
	if leftJoin {
		matched := make([]bool, left.N)
		for _, l := range lsel {
			matched[l] = true
		}
		for l, m := range matched {
			if !m {
				lsel = append(lsel, int32(l))
			}
		}
	}
	if cand != nil && cand.N == len(lsel) && len(rsel) == len(lsel) {
		return cand, nil // the residual kept every pair and nothing is padded
	}
	out := joinRows(left, right, schema, lsel, rsel)
	if c := ex.o.Counters; c != nil && cand != nil {
		c.CellsGathered.Add(int64(out.N) * int64(len(out.Cols)))
	}
	return out, nil
}

// joinRows gathers the join rows (lsel[i], rsel[i]). Rows past the end of
// rsel, the LEFT join's padded ones, read the right columns' zero value.
func joinRows(left, right *RowSet, schema Schema, lsel, rsel []int32) *RowSet {
	out := &RowSet{Schema: schema, N: len(lsel), Cols: make([]Column, 0, len(schema))}
	for i := range left.Cols {
		out.Cols = append(out.Cols, left.Cols[i].Gather(lsel))
	}
	for i := range right.Cols {
		out.Cols = append(out.Cols, right.Cols[i].gatherPadded(rsel, len(lsel)))
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
// allocated. A DISTINCT aggregate's worker-local state is the value set
// alone (distinct); the merge folds the union into a fresh accumulator.
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

// workerAgg is one worker's pre-aggregation state: its group table plus one
// accumulator per aggregate spec, all indexed by local group id.
type workerAgg struct {
	lg   *localGroups
	accs []*aggAcc
}

// execAggregate is GROUP BY over the morsel queue at ex.workers(n) workers.
// Each worker pre-aggregates the morsels it pulls into its own group table
// and accumulators; the tables merge into global group ids in
// first-occurrence order and the accumulators fold per group. DISTINCT
// aggregates collect per-group value sets instead (two workers may both have
// seen a value, so pre-aggregated distinct sums would double-count);
// mergeDistinct unions the sets and folds them. With one worker its table
// and non-DISTINCT accumulators are the global ones and nothing is merged.
func (ex *executor) execAggregate(n *opt.Aggregate) (*RowSet, error) {
	in, err := ex.collect(n.Input)
	if err != nil {
		return nil, err
	}
	// Group keys and aggregate arguments evaluate once as whole columns,
	// shared read-only by the workers. A bare column reference aliases table
	// storage, so this is free; a computed argument (sum(a*b)) evaluates here
	// before the fan-out, which bounds speedup for expression-heavy aggregates.
	keyVecs := make([]*Vec, len(n.GroupBy))
	for i, g := range n.GroupBy {
		if keyVecs[i], err = ex.evalColumn(g, in); err != nil {
			return nil, err
		}
	}
	argVecs := make([]*Vec, len(n.Aggs))
	for ai, spec := range n.Aggs {
		if spec.Arg == nil {
			continue
		}
		if argVecs[ai], err = ex.evalColumn(spec.Arg, in); err != nil {
			return nil, err
		}
	}

	w := ex.workers(in.N)
	modes := vecKeyModes(keyVecs)
	// rowGid holds each row's local group id; rows are written only by the
	// worker that pulled their morsel, so the slice is write-disjoint.
	rowGid := make([]int32, in.N)
	states := make([]*workerAgg, w)
	err = ex.runMorsels(in.N, w, func(wid, m, lo, hi int) error {
		st := states[wid]
		if st == nil {
			st = &workerAgg{lg: &localGroups{}, accs: make([]*aggAcc, len(n.Aggs))}
			for ai, spec := range n.Aggs {
				st.accs[ai] = &aggAcc{}
				if spec.Distinct && spec.Arg != nil {
					st.accs[ai].distinct = make(map[distinctKey]bool)
				}
			}
			states[wid] = st
		}
		st.lg.assign(keyVecs, modes, rowGid, lo, hi)
		G := len(st.lg.groupRows)
		for ai, spec := range n.Aggs {
			a := st.accs[ai]
			a.growCount(G)
			if spec.Arg == nil {
				if spec.Star {
					for r := lo; r < hi; r++ {
						a.count[rowGid[r]]++
					}
				}
				continue
			}
			av := argVecs[ai]
			if spec.Distinct {
				for r := lo; r < hi; r++ {
					if av.Nulls != nil && av.Nulls[r] {
						continue
					}
					// Look up first: a value seen before (most rows,
					// for a low-cardinality argument) costs no map write.
					if k := distinctKeyAt(av, r, rowGid[r]); !a.distinct[k] {
						a.distinct[k] = true
					}
				}
				continue
			}
			a.grow(spec, av.Type, G)
			if err := accumulateRange(a, spec, av, rowGid, lo, hi); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	states = slices.DeleteFunc(states, func(st *workerAgg) bool { return st == nil })
	tables := make([]*localGroups, len(states))
	for i, st := range states {
		tables[i] = st.lg
	}
	glob, srcs, remap := mergeLocalGroups(keyVecs, modes, tables)
	G := len(glob.groupRows)
	if G == 0 && len(n.GroupBy) == 0 {
		G = 1 // global aggregate over empty input still yields one row
	}

	accs := make([]*aggAcc, len(n.Aggs))
	for ai, spec := range n.Aggs {
		distinct := spec.Distinct && spec.Arg != nil
		if len(states) == 1 && !distinct {
			accs[ai] = states[0].accs[ai] // one worker: already global
			continue
		}
		ga := &aggAcc{}
		ga.growCount(G)
		if spec.Arg != nil {
			ga.grow(spec, argVecs[ai].Type, G)
		}
		accs[ai] = ga
	}
	// Fold the non-distinct locals in first-occurrence order — a fixed,
	// input-determined order, so merged results are stable across runs. srcs
	// is empty unless there are two tables or more.
	for _, s := range srcs {
		st := states[s.wid]
		g := int(remap[s.wid][s.lgid])
		for ai, spec := range n.Aggs {
			if spec.Distinct && spec.Arg != nil {
				continue
			}
			la, ga := st.accs[ai], accs[ai]
			lgid := int(s.lgid)
			if lgid < len(la.count) {
				ga.count[g] += la.count[lgid]
			}
			if ga.sum != nil && lgid < len(la.sum) {
				ga.sum[g] += la.sum[lgid]
			}
			if lgid < len(la.seen) && la.seen[lgid] {
				mergeMinMax(ga, g, la, lgid, spec.Func == "min", argVecs[ai].Type)
			}
		}
	}
	for ai, spec := range n.Aggs {
		if !spec.Distinct || spec.Arg == nil {
			continue
		}
		if err := mergeDistinct(accs[ai], spec, argVecs[ai].Type, G, states, remap, ai); err != nil {
			return nil, err
		}
	}
	return ex.buildAggOutput(n, keyVecs, glob.groupRows, accs, G)
}

// buildAggOutput boxes the per-group accumulators into the result rowset.
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
// groups, preserving existing group state: workers grow per morsel as their
// tables discover groups, the merge once to the global group count.
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
// referenced group. NULLs are skipped. DISTINCT aggregates never come here:
// they collect value sets (execAggregate) and fold them in mergeDistinct.
func accumulateRange(a *aggAcc, spec opt.AggSpec, av *Vec, rg []int32, lo, hi int) error {
	skip := func(r int) bool { return av.Nulls != nil && av.Nulls[r] }
	switch spec.Func {
	case "count":
		if av.Nulls == nil {
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
			if av.Nulls == nil {
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
			if av.Nulls == nil {
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
				if !skip(r) {
					return fmt.Errorf("engine: %s over %s", spec.Func, av.Type)
				}
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
		// Unknown functions surface their error at output time; just
		// count.
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

// execDistinct keeps the first occurrence of every distinct row, in input
// order: all columns are the key, and the merged group table's
// first-occurrence rows are exactly the distinct rows — GROUP BY's machinery
// without accumulators.
func (ex *executor) execDistinct(n *opt.Distinct) (*RowSet, error) {
	in, err := ex.collect(n.Input)
	if err != nil {
		return nil, err
	}
	if in.N == 0 {
		return in, nil
	}
	vecs := make([]*Vec, len(in.Cols))
	for i := range in.Cols {
		vecs[i] = colVec(&in.Cols[i])
	}
	groupRows, err := ex.parallelGroupRows(vecs, in.N, ex.workers(in.N))
	if err != nil {
		return nil, err
	}
	if len(groupRows) == in.N {
		return in, nil
	}
	return in.Gather(groupRows), nil
}

// execSort is ORDER BY at ex.workers(n) workers: contiguous chunks sort
// stably as tasks, then pairwise merges — ties take the earlier-input run —
// fold them into the one stable order. One worker sorts one chunk and merges
// nothing.
func (ex *executor) execSort(n *opt.Sort) (*RowSet, error) {
	in, err := ex.collect(n.Input)
	if err != nil {
		return nil, err
	}
	// Evaluate each key once as a whole column; comparisons then read typed
	// slices instead of boxed per-row values.
	keyVecs := make([]*Vec, len(n.Keys))
	for i, k := range n.Keys {
		if keyVecs[i], err = ex.evalColumn(k.Expr, in); err != nil {
			return nil, err
		}
	}
	// Under a LIMIT smaller than the input, select the k first rows instead
	// of ordering all of them; both inputs to the choice are known here.
	if 0 < n.TopK && n.TopK < int64(in.N) {
		return ex.execTopK(in, n.Keys, keyVecs, int(n.TopK))
	}
	if in.N == 0 {
		return in, nil
	}
	w := ex.workers(in.N)
	sel := make([]int32, in.N)
	for i := range sel {
		sel[i] = int32(i)
	}
	chunks := make([][]int32, 0, w)
	size := (in.N + w - 1) / w
	for lo := 0; lo < in.N; lo += size {
		chunks = append(chunks, sel[lo:min(lo+size, in.N)])
	}
	order := func(a, b int32) int { return compareRows(keyVecs, n.Keys, int(a), int(b)) }
	if err := ex.runTasks(len(chunks), w, func(_, ci int) error {
		return ex.sortRows(chunks[ci], order)
	}); err != nil {
		return nil, err
	}
	for len(chunks) > 1 {
		merged := make([][]int32, (len(chunks)+1)/2)
		err := ex.runTasks(len(merged), w, func(_, i int) error {
			if 2*i+1 == len(chunks) {
				merged[i] = chunks[2*i]
				return nil
			}
			m, err := ex.mergeRuns(chunks[2*i], chunks[2*i+1], keyVecs, n.Keys)
			merged[i] = m
			return err
		})
		if err != nil {
			return nil, err
		}
		chunks = merged
	}
	return in.Gather(chunks[0]), nil
}

// sortRows sorts row ids stably under order, polling the context every
// cancelBatchRows comparisons. A sort offers no early exit, so once the
// context is done the comparator turns constant: the doomed sort finishes
// cheaply, its result is dropped, and the context error is returned — a huge
// ORDER BY cannot pin a worker between key materialization and gather.
func (ex *executor) sortRows(rows []int32, order func(a, b int32) int) error {
	var err error
	sinceCheck := 0
	slices.SortStableFunc(rows, func(a, b int32) int {
		if err != nil {
			return 0
		}
		if sinceCheck++; sinceCheck >= cancelBatchRows {
			sinceCheck = 0
			if err = ex.checkCtx(); err != nil {
				return 0
			}
		}
		return order(a, b)
	})
	return err
}

// execTopK answers ORDER BY … LIMIT k without sorting the input. Rows are
// ranked by a total order — the sort keys, then input position — so the
// result is exactly the first k rows of the stable sort, whatever the worker
// count. Each of w contiguous chunks keeps its k first rows in a max-heap of
// row ids (the root is the row that would be cut next); the at most k·w
// survivors are sorted under the same order, cut to k, and only those rows
// are gathered.
func (ex *executor) execTopK(in *RowSet, keys []opt.SortKey, keyVecs []*Vec, k int) (*RowSet, error) {
	order := func(a, b int32) int {
		if c := compareRows(keyVecs, keys, int(a), int(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	before := func(a, b int32) bool { return order(a, b) < 0 }
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
	if err := ex.sortRows(cand, order); err != nil {
		return nil, err
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
		return caseType(x, schema)
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

// caseType unifies a CASE's THEN and ELSE branches, leaving out NULL
// literals: int and float branches make a float, and any other mix of
// classes is an error when the statement compiles.
func caseType(x *sql.Case, schema Schema) (ColType, error) {
	branches := make([]sql.Expr, 0, len(x.Whens)+1)
	for _, w := range x.Whens {
		branches = append(branches, w.Then)
	}
	branches = append(branches, x.Else)
	out, seen := TypeFloat, false
	for _, b := range branches {
		if lit, ok := b.(*sql.Lit); b == nil || ok && lit.Kind == sql.LitNull {
			continue
		}
		t, err := inferType(b, schema)
		switch {
		case err != nil:
			return 0, err
		case !seen || t == out:
			out, seen = t, true
		case (t == TypeInt || t == TypeFloat) && (out == TypeInt || out == TypeFloat):
			out = TypeFloat
		default:
			return 0, fmt.Errorf("engine: CASE branches mix %s and %s", out, t)
		}
	}
	return out, nil
}
