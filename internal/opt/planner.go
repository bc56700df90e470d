package opt

import (
	"fmt"
	"slices"

	"repro/internal/onnx"
	"repro/internal/sql"
)

// PlanSelect lowers a SELECT statement into a logical plan at the given
// optimization level. The input statement is never mutated.
func PlanSelect(s *sql.SelectStmt, models ModelProvider, catalog CatalogInfo, level Level) (*Plan, error) {
	p := &planner{models: models, catalog: catalog, level: level}
	p.report.Level = level
	root, err := p.plan(s)
	if err != nil {
		return nil, err
	}
	// Last, over the finished tree: the cross-optimizations above decide
	// which model inputs survive, and a dropped input must not be scanned.
	pruneScans(root, colSet{all: true})
	return &Plan{Root: root, Report: p.report}, nil
}

type planner struct {
	models  ModelProvider
	catalog CatalogInfo
	level   Level
	report  Report
	nameSeq int
}

func (p *planner) freshName(prefix string) string {
	p.nameSeq++
	return fmt.Sprintf("%s_%d", prefix, p.nameSeq)
}

// predictCall tracks one extracted PREDICT occurrence.
type predictCall struct {
	key     string
	call    *sql.Predict
	outName string
	node    *Predict
	uses    int
}

func (p *planner) plan(s *sql.SelectStmt) (Node, error) {
	// 1. FROM clause -> scans and joins.
	input, scans, err := p.planFrom(s.From)
	if err != nil {
		return nil, err
	}

	conjuncts := SplitConjuncts(s.Where)
	for _, c := range conjuncts {
		if hasSubquery(c) {
			return nil, fmt.Errorf("opt: subqueries in WHERE are not executable (parse-only support)")
		}
	}

	// 2. Extract PREDICT calls (UDF inlining) at LevelVectorized and above.
	var calls []*predictCall
	replace := func(e sql.Expr) sql.Expr { return e }
	if p.level >= LevelVectorized {
		byKey := map[string]*predictCall{}
		collect := func(e sql.Expr) {
			sql.WalkExprs(e, func(x sql.Expr) bool {
				if pr, ok := x.(*sql.Predict); ok {
					key := sql.FormatExpr(pr)
					if byKey[key] == nil {
						pc := &predictCall{key: key, call: pr, outName: p.freshName("predict")}
						byKey[key] = pc
						calls = append(calls, pc)
					}
					byKey[key].uses++
				}
				return true
			})
		}
		for _, it := range s.Items {
			collect(it.Expr)
		}
		for _, c := range conjuncts {
			collect(c)
		}
		collect(s.Having)
		for _, o := range s.OrderBy {
			collect(o.Expr)
		}
		replace = func(e sql.Expr) sql.Expr {
			if pr, ok := e.(*sql.Predict); ok {
				if pc := byKey[sql.FormatExpr(pr)]; pc != nil {
					return &sql.ColRef{Name: pc.outName}
				}
			}
			return nil
		}
		p.report.PredictsExtracted = len(calls)
	}

	rw := func(e sql.Expr) sql.Expr { return RewriteExpr(e, replace) }
	items := make([]sql.SelectItem, len(s.Items))
	for i, it := range s.Items {
		items[i] = sql.SelectItem{Star: it.Star, Alias: it.Alias, Expr: rw(it.Expr)}
	}
	var rwConjuncts []sql.Expr
	for _, c := range conjuncts {
		rwConjuncts = append(rwConjuncts, rw(c))
	}
	having := rw(s.Having)
	groupBy := make([]sql.Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		groupBy[i] = rw(g)
	}
	orderBy := make([]SortKey, len(s.OrderBy))
	for i, o := range s.OrderBy {
		orderBy[i] = SortKey{Expr: rw(o.Expr), Desc: o.Desc}
	}

	predictOuts := map[string]bool{}
	for _, pc := range calls {
		predictOuts[pc.outName] = true
	}

	// 3. Classify WHERE conjuncts: pushable below inference vs residual.
	var pushed, residual []sql.Expr
	for _, c := range rwConjuncts {
		if refsAny(c, predictOuts) || hasPredict(c) {
			residual = append(residual, c)
			continue
		}
		if p.level >= LevelFull || len(calls) == 0 {
			// Push below inference (and into scans where possible).
			pushed = append(pushed, c)
			if len(calls) > 0 {
				p.report.PushedDown++
			}
		} else {
			residual = append(residual, c)
		}
	}

	// Push scan-local conjuncts into scans; equality conjuncts spanning
	// two join sides become join conditions (classic join-condition
	// extraction for comma joins); the rest filter above the joins.
	var joinResidual []sql.Expr
	for _, c := range pushed {
		if sc := p.scanFor(c, scans); sc != nil {
			sc.Filters = append(sc.Filters, stripQualifier(c, sc))
			continue
		}
		if attachJoinCondition(input, c) {
			continue
		}
		joinResidual = append(joinResidual, c)
	}
	if len(joinResidual) > 0 {
		input = &Filter{Input: input, Preds: joinResidual}
	}

	// 4. Stack Predict operators.
	for _, pc := range calls {
		graph, err := p.models.GraphFor(pc.call.Model)
		if err != nil {
			return nil, err
		}
		graph = graph.Clone()
		node := &Predict{
			Input:   input,
			Model:   pc.call.Model,
			Graph:   graph,
			Args:    pc.call.Args,
			OutName: pc.outName,
		}
		pc.node = node
		input = node
	}

	// 5. Cross-optimizations on the model itself.
	if p.level >= LevelFull {
		residual = p.fuseCompares(calls, residual, items, having, orderBy)
		p.compressModels(calls)
	}

	if len(residual) > 0 {
		input = &Filter{Input: input, Preds: residual}
	}

	// 6. Aggregation.
	outNode := input
	needAgg := len(groupBy) > 0 || having != nil
	for _, it := range items {
		if !it.Star && hasAggregate(it.Expr) {
			needAgg = true
		}
	}
	if needAgg {
		agg := &Aggregate{Input: outNode, GroupBy: groupBy}
		for _, g := range groupBy {
			if cr, ok := g.(*sql.ColRef); ok {
				agg.GroupNames = append(agg.GroupNames, cr.Name)
			} else {
				agg.GroupNames = append(agg.GroupNames, p.freshName("group"))
			}
		}
		aggByKey := map[string]string{} // formatted call -> out name
		rewriteAggs := func(e sql.Expr) sql.Expr {
			return RewriteExpr(e, func(x sql.Expr) sql.Expr {
				fc, ok := x.(*sql.FuncCall)
				if !ok || !isAggFunc(fc.Name) {
					return nil
				}
				key := sql.FormatExpr(fc)
				name, seen := aggByKey[key]
				if !seen {
					name = p.freshName("agg")
					aggByKey[key] = name
					spec := AggSpec{Func: fc.Name, Star: fc.Star, Distinct: fc.Distinct, OutName: name}
					if len(fc.Args) > 0 {
						spec.Arg = fc.Args[0]
					}
					agg.Aggs = append(agg.Aggs, spec)
				}
				return &sql.ColRef{Name: name}
			})
		}
		// Also map group-by expressions to their output names.
		groupKeys := map[string]string{}
		for i, g := range groupBy {
			groupKeys[sql.FormatExpr(g)] = agg.GroupNames[i]
		}
		rewriteGroups := func(e sql.Expr) sql.Expr {
			return RewriteExpr(e, func(x sql.Expr) sql.Expr {
				if name, ok := groupKeys[sql.FormatExpr(x)]; ok {
					return &sql.ColRef{Name: name}
				}
				return nil
			})
		}
		for i := range items {
			if items[i].Star {
				return nil, fmt.Errorf("opt: SELECT * cannot be combined with aggregation")
			}
			items[i].Expr = rewriteGroups(rewriteAggs(items[i].Expr))
		}
		if having != nil {
			having = rewriteGroups(rewriteAggs(having))
		}
		for i := range orderBy {
			orderBy[i].Expr = rewriteGroups(rewriteAggs(orderBy[i].Expr))
		}
		outNode = agg
		if having != nil {
			outNode = &Filter{Input: outNode, Preds: SplitConjuncts(having)}
		}
	}

	// 7. Final projection.
	var star bool
	for _, it := range items {
		if it.Star {
			star = true
		}
	}
	if !star {
		proj := &Project{Input: outNode}
		used := map[string]bool{}
		for i, it := range items {
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sql.ColRef); ok {
					name = cr.Name
				} else {
					name = fmt.Sprintf("col_%d", i+1)
				}
			}
			if used[name] {
				name = p.freshName(name)
			}
			used[name] = true
			proj.Exprs = append(proj.Exprs, it.Expr)
			proj.Names = append(proj.Names, name)
		}
		// ORDER BY keys that match a projected expression or alias are
		// rewritten to reference the output column.
		byKey := map[string]string{}
		for i, e := range proj.Exprs {
			byKey[sql.FormatExpr(e)] = proj.Names[i]
		}
		for i := range orderBy {
			if name, ok := byKey[sql.FormatExpr(orderBy[i].Expr)]; ok {
				orderBy[i].Expr = &sql.ColRef{Name: name}
			}
		}
		// A key over a column the select list drops cannot be computed from
		// the projection's output: sort its input instead, with output names
		// mapped back to the expressions they alias. (Aggregate queries keep
		// the sort on top; their keys were rewritten to aggregate outputs.)
		if !needAgg && !keysResolve(orderBy, proj.Names) {
			if s.Distinct {
				return nil, fmt.Errorf("opt: for SELECT DISTINCT, ORDER BY expressions must appear in select list")
			}
			for i := range orderBy {
				orderBy[i].Expr = RewriteExpr(orderBy[i].Expr, func(e sql.Expr) sql.Expr {
					if cr, ok := e.(*sql.ColRef); ok && cr.Table == "" {
						if j := slices.Index(proj.Names, cr.Name); j >= 0 {
							return proj.Exprs[j]
						}
					}
					return nil
				})
			}
			proj.Input = &Sort{Input: outNode, Keys: orderBy, TopK: max(s.Limit, 0)}
			orderBy = nil
		}
		outNode = proj
	}
	if s.Distinct {
		outNode = &Distinct{Input: outNode}
	}
	if len(orderBy) > 0 {
		outNode = &Sort{Input: outNode, Keys: orderBy, TopK: max(s.Limit, 0)}
	}
	if s.Limit >= 0 {
		outNode = &Limit{Input: outNode, N: s.Limit}
	}
	return outNode, nil
}

// keysResolve reports whether every column the ORDER BY keys read is one of
// the projection's output names.
func keysResolve(keys []SortKey, names []string) bool {
	ok := true
	for _, k := range keys {
		sql.WalkExprs(k.Expr, func(x sql.Expr) bool {
			if cr, isRef := x.(*sql.ColRef); isRef && (cr.Table != "" || !slices.Contains(names, cr.Name)) {
				ok = false
			}
			return ok
		})
	}
	return ok
}

// colSet is the set of columns a plan node's consumers read, by bare name:
// a qualifier may be a table name, an alias or an enclosing derived table's
// alias, and keeping a same-named column on both sides of a join costs
// nothing where dropping a needed one is a wrong answer. all marks a
// consumer that reads every column (SELECT *).
type colSet struct {
	all   bool
	names []string
}

// with returns the set extended by the columns exprs reference (PREDICT
// arguments included: WalkExprs descends into them). It appends to the
// receiver's backing array, so a set handed to two consumers is clipped first.
func (c colSet) with(exprs ...sql.Expr) colSet {
	if c.all {
		return c
	}
	for _, e := range exprs {
		sql.WalkExprs(e, func(x sql.Expr) bool {
			if cr, ok := x.(*sql.ColRef); ok && !slices.Contains(c.names, cr.Name) {
				c.names = append(c.names, cr.Name)
			}
			return true
		})
	}
	return c
}

// pruneScans walks the finished plan top-down and records on every Scan the
// columns read above it (Scan.Cols). Project and Aggregate compute their
// outputs from their own expressions only, so they reset the set; Filter,
// Sort, Join and Predict read columns on top of whatever passes through
// them; Limit passes the set along. Distinct compares whole rows — the one
// operator that reads columns it does not name — so it needs everything its
// input produces (which a Project below it then narrows).
func pruneScans(n Node, need colSet) {
	switch x := n.(type) {
	case *Scan:
		if need.all {
			return
		}
		x.Cols = make([]string, 0, len(need.names))
		for _, c := range x.tableCols {
			if slices.Contains(need.names, c) {
				x.Cols = append(x.Cols, c)
			}
		}
	case *Filter:
		pruneScans(x.Input, need.with(x.Preds...))
	case *Predict:
		pruneScans(x.Input, need.with(x.Args...))
	case *Join:
		need = need.with(x.On)
		need.names = slices.Clip(need.names) // two consumers: neither appends in place
		pruneScans(x.Left, need)
		pruneScans(x.Right, need)
	case *Aggregate:
		need = colSet{names: make([]string, 0, len(x.GroupBy)+len(x.Aggs))}.with(x.GroupBy...)
		for _, a := range x.Aggs {
			need = need.with(a.Arg)
		}
		pruneScans(x.Input, need)
	case *Project:
		pruneScans(x.Input, colSet{names: make([]string, 0, len(x.Exprs))}.with(x.Exprs...))
	case *Distinct:
		pruneScans(x.Input, colSet{all: true})
	case *Sort:
		for _, k := range x.Keys {
			need = need.with(k.Expr)
		}
		pruneScans(x.Input, need)
	case *Limit:
		pruneScans(x.Input, need)
	}
}

// planFrom builds the scan/join subtree and returns the list of scans for
// pushdown decisions.
func (p *planner) planFrom(from []sql.FromItem) (Node, []*Scan, error) {
	if len(from) == 0 {
		return nil, nil, nil // FROM-less SELECT: engine synthesizes one row
	}
	var node Node
	var scans []*Scan
	for i, f := range from {
		var item Node
		if f.Sub != nil {
			sub, err := p.plan(f.Sub)
			if err != nil {
				return nil, nil, err
			}
			item = sub
		} else {
			cols, err := p.catalog.TableColumns(f.Table)
			if err != nil {
				return nil, nil, err
			}
			alias := f.Alias
			if alias == "" {
				alias = f.Table
			}
			sc := &Scan{Table: f.Table, Alias: alias, Version: f.Version, tableCols: cols, padded: f.Join == sql.JoinLeft}
			scans = append(scans, sc)
			item = sc
		}
		if i == 0 {
			node = item
			continue
		}
		jt := f.Join
		if jt == sql.JoinComma {
			jt = sql.JoinInner
		}
		node = &Join{Left: node, Right: item, Type: jt, On: f.On}
	}
	return node, scans, nil
}

// scanFor returns the single scan a conjunct can be pushed into, or nil. A
// LEFT join's right side is never one (Scan.padded).
func (p *planner) scanFor(c sql.Expr, scans []*Scan) *Scan {
	quals := qualifiers(c)
	var sc *Scan
	if len(scans) == 1 {
		// Single table: bare and alias-qualified refs all resolve to it.
		for q := range quals {
			if q != "" && q != scans[0].Alias && q != scans[0].Table {
				return nil
			}
		}
		sc = scans[0]
	} else if len(quals) == 1 && !quals[""] { // a bare reference is ambiguous
		for _, s := range scans {
			if quals[s.Alias] || quals[s.Table] {
				sc = s
				break
			}
		}
	}
	if sc == nil || sc.padded {
		return nil
	}
	return sc
}

// stripQualifier rewrites alias-qualified references into bare ones for
// evaluation directly against the scanned table.
func stripQualifier(c sql.Expr, sc *Scan) sql.Expr {
	return RewriteExpr(c, func(e sql.Expr) sql.Expr {
		if cr, ok := e.(*sql.ColRef); ok && (cr.Table == sc.Alias || cr.Table == sc.Table) {
			return &sql.ColRef{Name: cr.Name}
		}
		return nil
	})
}

// fuseCompares attaches threshold comparisons to Predict operators and,
// when the score is used nowhere else, pushes the threshold into the model
// (removing the sigmoid).
func (p *planner) fuseCompares(calls []*predictCall, residual []sql.Expr,
	items []sql.SelectItem, having sql.Expr, orderBy []SortKey) []sql.Expr {

	byOut := map[string]*predictCall{}
	for _, pc := range calls {
		byOut[pc.outName] = pc
	}
	countUses := func(name string) int {
		n := 0
		count := func(e sql.Expr) {
			sql.WalkExprs(e, func(x sql.Expr) bool {
				if cr, ok := x.(*sql.ColRef); ok && cr.Name == name {
					n++
				}
				return true
			})
		}
		for _, it := range items {
			count(it.Expr)
		}
		count(having)
		for _, o := range orderBy {
			count(o.Expr)
		}
		for _, c := range residual {
			count(c)
		}
		return n
	}

	var out []sql.Expr
	for _, c := range residual {
		pc, op, threshold, ok := matchThreshold(c, byOut)
		if !ok || pc.node.Compare != nil {
			out = append(out, c)
			continue
		}
		pc.node.Compare = &CompareSpec{Op: op, Threshold: threshold}
		// Push-up: only safe when the score column is not otherwise used
		// and the comparison is an inequality on a sigmoid output.
		if countUses(pc.outName) == 1 && (op == ">" || op == ">=" || op == "<" || op == "<=") {
			if raw, applied := onnx.PushUpThreshold(pc.node.Graph, threshold); applied {
				pc.node.Compare.Threshold = raw
				p.report.PushedUp = true
			}
		}
	}
	return out
}

// matchThreshold recognizes `predict_i op literal` (or the mirrored form).
func matchThreshold(c sql.Expr, byOut map[string]*predictCall) (*predictCall, string, float64, bool) {
	b, ok := c.(*sql.Binary)
	if !ok {
		return nil, "", 0, false
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, "", 0, false
	}
	if pc, v, ok := colAndLit(b.L, b.R, byOut); ok {
		return pc, b.Op, v, true
	}
	if pc, v, ok := colAndLit(b.R, b.L, byOut); ok {
		return pc, mirrorOp(b.Op), v, true
	}
	return nil, "", 0, false
}

func colAndLit(l, r sql.Expr, byOut map[string]*predictCall) (*predictCall, float64, bool) {
	cr, ok := l.(*sql.ColRef)
	if !ok {
		return nil, 0, false
	}
	pc, ok := byOut[cr.Name]
	if !ok {
		return nil, 0, false
	}
	lit, ok := r.(*sql.Lit)
	if !ok {
		return nil, 0, false
	}
	switch lit.Kind {
	case sql.LitInt:
		return pc, float64(lit.I), true
	case sql.LitFloat:
		return pc, lit.F, true
	}
	return nil, 0, false
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// compressModels applies the data-independent model rewrites to every
// extracted model: sparsity pruning, and narrowing the arguments to the
// inputs that survive it. A model fed by a current-version base-table scan
// is marked for stats-driven compression, which the executor applies at
// cursor open against the snapshot it scores (time travel is not marked:
// its rows are those of a retained version).
func (p *planner) compressModels(calls []*predictCall) {
	for _, pc := range calls {
		// Arguments are positional against the graph's declared inputs;
		// without that correspondence we cannot safely narrow them.
		origInputs := pc.node.Graph.InputNames()
		if len(pc.node.Args) != len(origInputs) {
			continue
		}
		sc := baseScan(pc.node.Input)
		pc.node.Compress = sc != nil && sc.Version < 0
		res := onnx.PruneUnusedFeatures(pc.node.Graph)
		p.report.PrunedInputs = append(p.report.PrunedInputs, res.DroppedInputs...)

		// Narrow the operator's argument list to the surviving inputs
		// (projection pruning of feature columns).
		surviving := map[string]bool{}
		for _, name := range pc.node.Graph.InputNames() {
			surviving[name] = true
		}
		var kept []sql.Expr
		for i, name := range origInputs {
			if surviving[name] {
				kept = append(kept, pc.node.Args[i])
			}
		}
		pc.node.Args = kept
	}
}

// attachJoinCondition tries to attach an equality conjunct as the ON
// condition of the lowest inner join whose two sides cover the conjunct's
// qualifiers. Returns true when attached. A LEFT join's ON never takes a
// WHERE conjunct: there it would pad the rows it should drop.
func attachJoinCondition(root Node, c sql.Expr) bool {
	b, ok := c.(*sql.Binary)
	if !ok || b.Op != "=" {
		return false
	}
	quals := qualifiers(c)
	if len(quals) != 2 || quals[""] {
		return false
	}
	var want [2]string
	i := 0
	for q := range quals {
		want[i] = q
		i++
	}
	// Walk the left-deep join chain bottom-up: attach at the lowest join
	// where one qualifier is on the right side and the other anywhere on
	// the left.
	var attach func(n Node) bool
	covers := func(n Node, q string) bool {
		found := false
		var walk func(Node)
		walk = func(x Node) {
			switch t := x.(type) {
			case *Scan:
				if t.Alias == q || t.Table == q {
					found = true
				}
			case *Join:
				walk(t.Left)
				walk(t.Right)
			case *Filter:
				walk(t.Input)
			case *Predict:
				walk(t.Input)
			}
		}
		walk(n)
		return found
	}
	attach = func(n Node) bool {
		j, ok := n.(*Join)
		if !ok {
			return false
		}
		// Prefer the deepest applicable join.
		if attach(j.Left) {
			return true
		}
		if j.Type == sql.JoinLeft {
			return false
		}
		l0, r0 := covers(j.Left, want[0]), covers(j.Right, want[1])
		l1, r1 := covers(j.Left, want[1]), covers(j.Right, want[0])
		if (l0 && r0) || (l1 && r1) {
			if j.On == nil {
				j.On = c
			} else {
				j.On = &sql.Binary{Op: "AND", L: j.On, R: c}
			}
			return true
		}
		return false
	}
	return attach(root)
}

// baseScan walks through Predict/Filter nodes to the underlying scan.
func baseScan(n Node) *Scan {
	for {
		switch x := n.(type) {
		case *Scan:
			return x
		case *Predict:
			n = x.Input
		case *Filter:
			n = x.Input
		default:
			return nil
		}
	}
}
