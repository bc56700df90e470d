package engine

// Pull-based streaming result API. A SELECT no longer has to materialize
// its whole result before the first row reaches a caller: OpenPlanCursor
// lowers a plan into a Cursor that produces batches on demand. Streamable
// pipelines — any top chain of Scan / Filter / Project / Predict / Limit —
// run incrementally, one window of morsels per Next call, so a drain holds
// O(batch) memory regardless of result size and a LIMIT stops the scan as
// soon as enough rows were produced. Blocking operators (ORDER BY,
// GROUP BY, DISTINCT, joins) cannot stream: the subtree below the last
// streamable chain is materialized once at open and then drained in
// batches, so every plan shape speaks the same cursor protocol.
//
// Materializing is Collect over a cursor, everywhere: ExecPlanContext is
// Collect(OpenPlanCursor(...)), and a breaker's streamable input is opened
// and collected the same way (executor.collect). Collect drains a limit-free
// streamable cursor one run of morsels per window — the whole input when no
// zone rules a morsel out — so each stream op runs its kernels once per run
// and a pass-through stays zero-copy.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Batch is one chunk of cursor output: a RowSet whose columns may alias
// table storage (scan batches are zero-copy slices). A batch is immutable
// once returned and remains valid after subsequent Next calls.
type Batch = RowSet

// Cursor is the pull-based result of a SELECT. Next returns the next
// non-empty batch, or (nil, io.EOF) when the result is drained, or an
// error. Execution errors are sticky — every later Next returns the same
// error. Context errors (cancellation, deadline) are NOT sticky: the pull
// that died consumed nothing, so a later Next under a live context resumes
// exactly where the stream left off — the server's fetch protocol relies
// on this to make timed-out fetches retryable. A Cursor is NOT safe for
// concurrent use; callers interleaving Next from multiple goroutines must
// serialize. Close is idempotent and must be called exactly once-or-more on
// every opened cursor, drained or not — the engine counts open cursors
// (CursorsOpen) so serving layers can assert they never leak one.
type Cursor interface {
	// Schema describes the cursor's output columns.
	Schema() Schema
	// Next returns the next batch. The context applies to this call only:
	// a cursor outlives any single request, and each pull may carry its own
	// deadline (the server-side cursor protocol fetches under per-request
	// timeouts).
	Next(ctx context.Context) (*Batch, error)
	// Close releases the cursor. Safe to call multiple times.
	Close() error
}

// errCursorClosed surfaces pulls on a closed cursor.
var errCursorClosed = errors.New("engine: cursor is closed")

// openCursors counts engine cursors that OpenPlanCursor handed to a caller
// and that were not yet closed, across every query (exported on /metrics and
// asserted zero by cursor-leak tests). The cursors an executor opens and
// drains internally are not counted.
var openCursors atomic.Int64

// CursorsOpen reports how many engine cursors are currently open.
func CursorsOpen() int64 { return openCursors.Load() }

// ExecCounters collects optional execution statistics when attached via
// ExecOptions.Counters. All fields are safe for concurrent update.
type ExecCounters struct {
	// RowsScanned counts base-table rows read by scans. With LIMIT pushdown
	// a capped streamable pipeline stops scanning early, so this stays well
	// below the table size (pinned by TestCursorLimitShortCircuitsScan), and
	// the morsels a zone rules out (zonemap.go) are not read at all.
	RowsScanned atomic.Int64
	// CellsGathered counts the cells (rows × columns) copied by filter
	// gathers: scans with pushed-down conjuncts, Filter nodes and join
	// residuals. A scan gathers only the columns the plan above it reads
	// (opt.Scan.Cols), so this is the number projection pruning moves while
	// RowsScanned stays put.
	CellsGathered atomic.Int64
	// TreeNodesBefore/After sum the tree nodes of every model a PREDICT
	// opened with before and after compression against the scanned
	// snapshot, CategoriesDropped the one-hot categories it does not hold.
	TreeNodesBefore, TreeNodesAfter, CategoriesDropped atomic.Int64
}

// OpenPlanCursor opens a cursor over a previously planned SELECT. Blocking
// plan shapes (sort, aggregate, distinct, join) execute fully during the
// open call under ctx; streamable pipelines defer all scan work to Next.
// Decisions that depend on data are made here, over the snapshots scanned;
// callers caching plans must revalidate them (see core.Prepared).
func (db *DB) OpenPlanCursor(ctx context.Context, plan *opt.Plan, o ExecOptions) (Cursor, error) {
	ex := &executor{ctx: ctx, db: db, o: o,
		env: db.compileEnv(ctx)}
	sc, err := ex.openCursor(plan.Root)
	if err != nil {
		return nil, err
	}
	sc.counted = true
	openCursors.Add(1)
	return sc, nil
}

// streamOp is one precompiled streamable operator applied batch-by-batch.
// Operators are compiled once at open (expression compilation, scoring
// session setup, column resolution) and applied to every batch, so per-Next
// overhead is just kernel work.
type streamOp interface {
	apply(ex *executor, in *RowSet) (*RowSet, error)
	schema() Schema
}

// streamCursor drains src — either a base-table scan snapshot or the
// materialized output of a blocking subtree — through a chain of
// precompiled streamable ops, one window of morsels per Next. It reads the
// morsels of runs in order; a window never spans two runs.
type streamCursor struct {
	ex  *executor
	src *RowSet
	ops []streamOp
	out Schema

	// srcIsScan marks src as a live table snapshot (rows pulled from it
	// count toward ExecCounters.RowsScanned; a breaker's output was already
	// counted by the cursors that collected its inputs).
	srcIsScan bool
	// window is how many morsels one Next processes; the parallel worker
	// cap, so a batch is exactly one round of the morsel pool.
	window int
	// drainAll makes each Next process the rest of the current run in one
	// batch — Collect sets it on limit-free cursors so materialization runs
	// the kernels over each run (with nothing pruned, the whole input) in
	// one pass.
	drainAll bool
	// hasLimit notes a LIMIT somewhere in the op chain; exhausted flips when
	// a limit op has emitted its N rows, stopping the scan early.
	hasLimit  bool
	exhausted bool

	// runs are the morsel ranges to read, in order: the ones no zone rules
	// out (zonemap.go), or the one run [0, morselCount(src.N)). run indexes
	// the current one and nextMorsel is the next morsel to read in it.
	runs       []morselRun
	run        int
	nextMorsel int
	closed     bool
	err        error
	// counted marks a cursor handed out by OpenPlanCursor: it is in
	// openCursors until Close.
	counted bool
}

// openCursor peels the maximal streamable chain (Limit / Project / Filter /
// Predict) off the top of the plan, materializes whatever blocking subtree
// remains below it, and assembles the cursor bottom-up.
func (ex *executor) openCursor(root opt.Node) (*streamCursor, error) {
	if err := ex.checkCtx(); err != nil {
		return nil, err
	}
	var chain []opt.Node // top-down
	node := root
peel:
	for {
		switch n := node.(type) {
		case *opt.Limit:
			chain = append(chain, n)
			node = n.Input
		case *opt.Project:
			chain = append(chain, n)
			node = n.Input
		case *opt.Filter:
			chain = append(chain, n)
			node = n.Input
		case *opt.Predict:
			chain = append(chain, n)
			node = n.Input
		default:
			break peel
		}
	}

	sc := &streamCursor{ex: ex, ops: make([]streamOp, 0, len(chain)+1)}
	var schema Schema    // of the rows flowing into the next op
	var tests []zoneTest // the scan's conjuncts its zones can rule out
	var src *RowSet      // the scanned snapshot, nil above a breaker
	var zones zoneMap
	var stats onnx.Stats // of the snapshot, folded for the first PREDICT that compresses
	if scan, ok := node.(*opt.Scan); ok {
		var err error
		src, zones, err = ex.scanSource(scan)
		if err != nil {
			return nil, err
		}
		sc.src = src
		sc.srcIsScan = true
		out := src.pick(scan.Cols)
		schema = out.Schema
		if pred := opt.AndAll(scan.Filters); pred != nil {
			// Pushed-down scan conjuncts become the bottom-most filter op: it
			// reads the snapshot's kept morsels (zero-copy batches) and
			// copies only the columns read above the scan.
			fn, err := compileVec(pred, src.Schema, ex.env)
			if err != nil {
				return nil, err
			}
			sc.ops = append(sc.ops, &filterOp{fn: fn, cols: scan.Cols, sc: schema})
			if zones.num != nil {
				tests = zoneTests(scan.Filters, src.Schema)
			}
		} else {
			sc.src = out
		}
	} else {
		// Blocking subtree (or FROM-less nil): materialize it now; the
		// cursor drains the result in batches.
		rs, err := ex.exec(node)
		if err != nil {
			return nil, err
		}
		sc.src = rs
		schema = rs.Schema
	}

	for i := len(chain) - 1; i >= 0; i-- {
		var op streamOp
		var err error
		switch n := chain[i].(type) {
		case *opt.Filter:
			pred := opt.AndAll(n.Preds)
			if pred == nil {
				continue
			}
			op, err = newFilterOp(ex, pred, schema)
		case *opt.Project:
			op, err = newProjectOp(ex, n, schema)
		case *opt.Predict:
			if n.Compress && stats == nil && zones.num != nil {
				stats = snapshotStats(src.Schema, src.Cols, zones)
			}
			op, err = newPredictOp(ex, n, schema, stats)
		case *opt.Limit:
			op = &limitOp{sc: sc, remaining: n.N, in: schema}
			sc.hasLimit = true
		}
		if err != nil {
			return nil, err
		}
		sc.ops = append(sc.ops, op)
		schema = op.schema()
	}
	sc.out = schema
	sc.runs = keptRuns(tests, zones.num, sc.src.N)
	sc.nextMorsel = sc.runs[0].lo
	sc.window = ex.o.MaxWorkers()
	if sc.window < 1 {
		sc.window = 1
	}
	return sc, nil
}

// scanSource snapshots the scanned table with the alias-qualified schema
// (pushed-down filters become a stream op), and the snapshot's zone map,
// which feeds both morsel pruning and model compression. A time-travel
// scan — the current version named explicitly included — has no zones and
// reads every morsel.
func (ex *executor) scanSource(n *opt.Scan) (*RowSet, zoneMap, error) {
	t, err := ex.db.Table(n.Table)
	if err != nil {
		return nil, zoneMap{}, err
	}
	cols, zones, schema, rows := t.snapshot()
	if n.Version >= 0 {
		zones = zoneMap{}
		if cols, schema, rows, err = t.SnapshotAt(n.Version); err != nil {
			return nil, zoneMap{}, err
		}
	}
	qualified := make(Schema, len(schema))
	for i, m := range schema {
		qualified[i] = ColMeta{Qual: n.Alias, Name: m.Name, Type: m.Type}
	}
	return &RowSet{Schema: qualified, Cols: cols, N: rows}, zones, nil
}

func (sc *streamCursor) Schema() Schema { return sc.out }

func (sc *streamCursor) Next(ctx context.Context) (*Batch, error) {
	if sc.closed {
		return nil, errCursorClosed
	}
	if sc.err != nil {
		return nil, sc.err
	}
	// The cursor outlives the request that opened it: every pull re-anchors
	// the executor (and the compiled row-mode PREDICT environment) on the
	// caller's current context.
	sc.ex.setCtx(ctx)
	for {
		if sc.exhausted || sc.run >= len(sc.runs) {
			return nil, io.EOF
		}
		if err := sc.ex.checkCtx(); err != nil {
			// Pre-window: nothing consumed, so a retry under a live
			// context resumes cleanly.
			return nil, err
		}
		r := sc.runs[sc.run]
		if sc.nextMorsel >= r.hi {
			// The run is read: step to the next one, one step per
			// iteration so the context is polled between runs too.
			sc.run++
			if sc.run < len(sc.runs) {
				sc.nextMorsel = sc.runs[sc.run].lo
			}
			continue
		}
		mhi := min(sc.nextMorsel+sc.window, r.hi)
		if sc.drainAll && !sc.hasLimit {
			mhi = r.hi
		}
		lo, _ := morselBounds(sc.nextMorsel, sc.src.N)
		_, hi := morselBounds(mhi-1, sc.src.N)

		// Snapshot the window-consuming state so a context error mid-window
		// can roll back and the next pull re-processes the same window —
		// no rows are lost to a timed-out fetch. The rollback restores the
		// whole read position, run and morsel.
		savedRun, savedMorsel := sc.run, sc.nextMorsel
		savedLimits := sc.snapshotLimits()
		sc.nextMorsel = mhi

		batch := sc.src.Slice(lo, hi)
		var err error
		for _, op := range sc.ops {
			batch, err = op.apply(sc.ex, batch)
			if err != nil {
				break
			}
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				sc.run, sc.nextMorsel = savedRun, savedMorsel
				sc.restoreLimits(savedLimits)
				return nil, err
			}
			sc.err = err // execution errors are sticky
			return nil, err
		}
		if sc.srcIsScan {
			if c := sc.ex.o.Counters; c != nil {
				c.RowsScanned.Add(int64(hi - lo))
			}
		}
		if batch.N > 0 {
			return batch, nil
		}
		// Every row of the window was filtered out (or a LIMIT landed on a
		// window boundary): keep pulling rather than returning empty batches.
	}
}

// snapshotLimits / restoreLimits save the mutable state of limit ops (and
// the exhausted flag they drive) around one window, for mid-window rollback
// on context errors.
func (sc *streamCursor) snapshotLimits() []int64 {
	var saved []int64
	for _, op := range sc.ops {
		if l, ok := op.(*limitOp); ok {
			saved = append(saved, l.remaining)
		}
	}
	return saved
}

func (sc *streamCursor) restoreLimits(saved []int64) {
	i := 0
	for _, op := range sc.ops {
		if l, ok := op.(*limitOp); ok {
			l.remaining = saved[i]
			i++
		}
	}
	sc.exhausted = false
}

func (sc *streamCursor) Close() error {
	if sc.closed {
		return nil
	}
	sc.closed = true
	sc.src = nil
	sc.ops = nil
	if sc.counted {
		openCursors.Add(-1)
	}
	return nil
}

// setCtx re-anchors the executor on a new context: ex.ctx feeds the
// cancellation checkpoints, env.ctx the compiled row-mode PREDICT closures
// (which read it per call). Only the goroutine driving the cursor may call
// this; operator workers spawned inside a Next observe the write through
// goroutine creation.
func (ex *executor) setCtx(ctx context.Context) {
	ex.ctx = ctx
	ex.env.ctx = ctx
}

// Collect drains a cursor into a materialized RowSet and closes it: the one
// way a result or a breaker's input is materialized. On a limit-free
// streamable cursor it drains one run per window, so each op runs its
// kernels once per run (and a pass-through stays zero-copy);
// capped cursors keep their window-at-a-time pulls so LIMIT still
// short-circuits the scan.
func Collect(ctx context.Context, c Cursor) (*RowSet, error) {
	defer c.Close()
	if sc, ok := c.(*streamCursor); ok && !sc.hasLimit {
		sc.drainAll = true
	}
	var batches []*Batch
	total := 0
	for {
		b, err := c.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
		total += b.N
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	schema := c.Schema()
	out := &RowSet{Schema: schema, N: total, Cols: make([]Column, len(schema))}
	for i := range schema {
		out.Cols[i] = concatBatches(schema[i].Type, batches, i, total)
	}
	return out, nil
}

// concatBatches concatenates column i of every batch into one typed column
// with a single allocation.
func concatBatches(t ColType, batches []*Batch, i, total int) Column {
	out := Column{Type: t}
	switch t {
	case TypeInt:
		vals := make([]int64, 0, total)
		for _, b := range batches {
			vals = append(vals, b.Cols[i].Ints...)
		}
		out.Ints = vals
	case TypeFloat:
		vals := make([]float64, 0, total)
		for _, b := range batches {
			vals = append(vals, b.Cols[i].Floats...)
		}
		out.Floats = vals
	case TypeString:
		vals := make([]string, 0, total)
		for _, b := range batches {
			vals = append(vals, b.Cols[i].Strs...)
		}
		out.Strs = vals
	case TypeBool:
		vals := make([]bool, 0, total)
		for _, b := range batches {
			vals = append(vals, b.Cols[i].Bools...)
		}
		out.Bools = vals
	}
	return out
}

// ---- streamable operators ----

// filterOp applies a precompiled predicate kernel per batch and emits the
// columns named in cols (nil: all of them — every filter but a scan's own,
// which emits opt.Scan.Cols); sc is the emitted schema.
type filterOp struct {
	fn   vecFunc
	cols []string
	sc   Schema
}

func newFilterOp(ex *executor, pred sql.Expr, in Schema) (*filterOp, error) {
	fn, err := compileVec(pred, in, ex.env)
	if err != nil {
		return nil, err
	}
	return &filterOp{fn: fn, sc: in}, nil
}

func (f *filterOp) schema() Schema { return f.sc }

func (f *filterOp) apply(ex *executor, in *RowSet) (*RowSet, error) {
	return ex.filterGather(in, in.pick(f.cols), f.fn)
}

// projExpr is one compiled projection: either a bare column alias or a
// compiled expression with its inferred output type.
type projExpr struct {
	colIdx int // >= 0: alias input column colIdx
	fn     vecFunc
	typ    ColType
}

// projectOp applies precompiled output expressions per batch.
type projectOp struct {
	exprs []projExpr
	out   Schema
}

func newProjectOp(ex *executor, n *opt.Project, in Schema) (*projectOp, error) {
	exprs := make([]projExpr, len(n.Exprs))
	out := make(Schema, len(n.Exprs))
	for i, e := range n.Exprs {
		// Fast path: bare column references alias storage.
		if cr, ok := e.(*sql.ColRef); ok {
			idx, err := in.Resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, err
			}
			exprs[i] = projExpr{colIdx: idx}
			out[i] = ColMeta{Name: n.Names[i], Type: in[idx].Type}
			continue
		}
		fn, err := compileVec(e, in, ex.env)
		if err != nil {
			return nil, err
		}
		t, err := inferType(e, in)
		if err != nil {
			return nil, err
		}
		exprs[i] = projExpr{colIdx: -1, fn: fn, typ: t}
		out[i] = ColMeta{Name: n.Names[i], Type: t}
	}
	return &projectOp{exprs: exprs, out: out}, nil
}

func (p *projectOp) schema() Schema { return p.out }

func (p *projectOp) apply(ex *executor, in *RowSet) (*RowSet, error) {
	outCols := make([]Column, len(p.exprs))
	for i, pe := range p.exprs {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		if pe.colIdx >= 0 {
			outCols[i] = in.Cols[pe.colIdx]
			continue
		}
		v, err := pe.fn(in)
		if err != nil {
			return nil, err
		}
		col, err := v.toColumn(pe.typ, in.N)
		if err != nil {
			return nil, err
		}
		outCols[i] = col
	}
	return &RowSet{Schema: p.out, Cols: outCols, N: in.N}, nil
}

// argBind is one resolved PREDICT argument: a direct input column or a
// compiled derived expression.
type argBind struct {
	colIdx int
	fn     vecFunc
	typ    ColType
}

// predictOp scores batches through the inference plane or, with none
// installed, a scoring session created once at open, with the optional
// fused threshold compare. g is the graph it scores with: the plan's, or a
// copy compressed for the scanned snapshot.
type predictOp struct {
	n    *opt.Predict
	g    *onnx.Graph
	sess *onnx.Session
	args []argBind
	out  Schema
}

// newPredictOp compiles a Predict over input schema in. A node marked
// Compress scores with a copy of its graph specialized to stats, those of
// the snapshot its scan reads.
func newPredictOp(ex *executor, n *opt.Predict, in Schema, stats onnx.Stats) (*predictOp, error) {
	g := n.Graph
	if len(n.Args) != len(g.Inputs) {
		return nil, fmt.Errorf("engine: PREDICT(%s, ...) takes %d arguments, got %d",
			n.Model, len(g.Inputs), len(n.Args))
	}
	args := make([]argBind, len(n.Args))
	for i, a := range n.Args {
		if cr, ok := a.(*sql.ColRef); ok {
			idx, err := in.Resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: %w", n.Model, i+1, err)
			}
			args[i] = argBind{colIdx: idx}
			continue
		}
		fn, err := compileVec(a, in, ex.env)
		if err != nil {
			return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: %w", n.Model, i+1, err)
		}
		t, err := inferType(a, in)
		if err != nil {
			return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: %w", n.Model, i+1, err)
		}
		args[i] = argBind{colIdx: -1, fn: fn, typ: t}
	}
	if n.Compress && stats != nil {
		g, args = compressForSnapshot(ex, n, in, args, stats)
	}
	// The plane scores with its own backend, validated once per graph
	// fingerprint; only the direct path needs a session of its own.
	var sess *onnx.Session
	if ex.env.plane == nil {
		var err error
		if sess, err = onnx.NewSession(g); err != nil {
			return nil, err
		}
	}
	out := append(append(Schema(nil), in...), ColMeta{Name: n.OutName, Type: TypeFloat})
	return &predictOp{n: n, g: g, sess: sess, args: args, out: out}, nil
}

// compressForSnapshot returns a copy of n's graph compressed with stats and
// the arguments its surviving inputs read (a dropped input's column is
// never read). A graph input takes the statistics of the column its
// argument names: the values the model is actually fed.
func compressForSnapshot(ex *executor, n *opt.Predict, in Schema, args []argBind, stats onnx.Stats) (*onnx.Graph, []argBind) {
	byInput := onnx.Stats{}
	for i, ab := range args {
		if ab.colIdx < 0 {
			continue
		}
		if st, ok := stats[in[ab.colIdx].Name]; ok {
			byInput[n.Graph.Inputs[i].Name] = st
		}
	}
	g, res := onnx.Compressed(n.Graph, byInput)
	if c := ex.o.Counters; c != nil {
		c.TreeNodesBefore.Add(int64(res.NodesBefore))
		c.TreeNodesAfter.Add(int64(res.NodesAfter))
		c.CategoriesDropped.Add(int64(res.CategoriesDropped))
	}
	kept := args[:0] // compression keeps the inputs' order
	for i, ab := range args {
		if len(kept) < len(g.Inputs) && g.Inputs[len(kept)].Name == n.Graph.Inputs[i].Name {
			kept = append(kept, ab)
		}
	}
	return g, kept
}

func (p *predictOp) schema() Schema { return p.out }

func (p *predictOp) apply(ex *executor, in *RowSet) (*RowSet, error) {
	g := p.g
	batchCols := make([]onnx.Column, len(p.args))
	for i, ab := range p.args {
		var col Column
		if ab.colIdx >= 0 {
			col = in.Cols[ab.colIdx]
		} else {
			v, err := ab.fn(in)
			if err != nil {
				return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: %w", p.n.Model, i+1, err)
			}
			col, err = v.toColumn(ab.typ, in.N)
			if err != nil {
				return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: %w", p.n.Model, i+1, err)
			}
		}
		switch g.Inputs[i].Kind {
		case ml.KindNumeric:
			switch col.Type {
			case TypeFloat:
				batchCols[i] = onnx.Column{Nums: col.Floats}
			case TypeInt:
				conv := make([]float64, len(col.Ints))
				for j, v := range col.Ints {
					conv[j] = float64(v)
				}
				batchCols[i] = onnx.Column{Nums: conv}
			default:
				return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: model wants numeric, column is %s",
					p.n.Model, i+1, col.Type)
			}
		default: // categorical or text
			if col.Type != TypeString {
				return nil, fmt.Errorf("engine: PREDICT(%s) argument %d: model wants text, column is %s",
					p.n.Model, i+1, col.Type)
			}
			batchCols[i] = onnx.Column{Strs: col.Strs}
		}
	}

	scores := make([]float64, in.N)
	w := ex.workers(in.N)
	plane := ex.env.plane
	err := ex.runMorsels(in.N, w, func(wid, m, lo, hi int) error {
		for clo := lo; clo < hi; clo += predictChunk {
			chi := clo + predictChunk
			if chi > hi {
				chi = hi
			}
			b := onnx.Batch{N: chi - clo, Cols: make([]onnx.Column, len(batchCols))}
			for i := range batchCols {
				if batchCols[i].Nums != nil {
					b.Cols[i].Nums = batchCols[i].Nums[clo:chi]
				} else {
					b.Cols[i].Strs = batchCols[i].Strs[clo:chi]
				}
			}
			if plane != nil {
				if err := plane.Score(ex.ctx, p.n.Model, g, &b, scores[clo:chi]); err != nil {
					return err
				}
				continue
			}
			if err := p.sess.RunInto(&b, scores[clo:chi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if p.n.Compare == nil {
		cols := append(append([]Column(nil), in.Cols...), FloatColumn(scores))
		return &RowSet{Schema: p.out, Cols: cols, N: in.N}, nil
	}
	// Fused threshold filter: the score column feeds the shared selection
	// kernel directly, no per-row boxing.
	sel, err := selectFloatCompare(scores, p.n.Compare.Op, p.n.Compare.Threshold)
	if err != nil {
		return nil, err
	}
	out := in.Gather(sel)
	fc := FloatColumn(scores)
	scoreCol := fc.Gather(sel)
	out.Schema = p.out
	out.Cols = append(out.Cols, scoreCol)
	return out, nil
}

// limitOp truncates the stream after N rows and flips the cursor to
// exhausted, which is what terminates the scan early (LIMIT pushdown).
type limitOp struct {
	sc        *streamCursor
	remaining int64
	in        Schema
}

func (l *limitOp) schema() Schema { return l.in }

func (l *limitOp) apply(ex *executor, in *RowSet) (*RowSet, error) {
	if l.remaining <= 0 {
		l.sc.exhausted = true
		return in.Slice(0, 0), nil
	}
	if int64(in.N) >= l.remaining {
		out := in
		if int64(in.N) > l.remaining {
			out = in.Slice(0, int(l.remaining))
		}
		l.remaining = 0
		l.sc.exhausted = true
		return out, nil
	}
	l.remaining -= int64(in.N)
	return in, nil
}
