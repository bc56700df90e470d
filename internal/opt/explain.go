package opt

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// FormatPlan renders a logical plan as an indented tree (EXPLAIN output).
func FormatPlan(root Node) string {
	var b strings.Builder
	writePlan(&b, root, 0)
	return b.String()
}

func writePlan(b *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case nil:
		fmt.Fprintf(b, "%sValues(1 row)\n", indent)
	case *Scan:
		fmt.Fprintf(b, "%sScan(%s", indent, x.Table)
		if x.Alias != "" && x.Alias != x.Table {
			fmt.Fprintf(b, " AS %s", x.Alias)
		}
		if x.Version >= 0 {
			fmt.Fprintf(b, " VERSION %d", x.Version)
		}
		b.WriteString(")")
		if x.Cols != nil {
			fmt.Fprintf(b, " cols=%v", x.Cols)
		}
		if len(x.Filters) > 0 {
			fmt.Fprintf(b, " filter=%s", sql.FormatExpr(AndAll(x.Filters)))
		}
		b.WriteString("\n")
	case *Filter:
		fmt.Fprintf(b, "%sFilter(%s)\n", indent, sql.FormatExpr(AndAll(x.Preds)))
		writePlan(b, x.Input, depth+1)
	case *Predict:
		fmt.Fprintf(b, "%sPredict(model=%s out=%s inputs=%d", indent, x.Model, x.OutName, len(x.Args))
		if x.Compare != nil {
			fmt.Fprintf(b, " fused-compare=%s%g", x.Compare.Op, x.Compare.Threshold)
		}
		b.WriteString(")\n")
		writePlan(b, x.Input, depth+1)
	case *Join:
		kind := "InnerJoin"
		if x.Type == sql.JoinLeft {
			kind = "LeftJoin"
		}
		cond := "<cross>"
		if x.On != nil {
			cond = sql.FormatExpr(x.On)
		}
		fmt.Fprintf(b, "%s%s(%s)\n", indent, kind, cond)
		writePlan(b, x.Left, depth+1)
		writePlan(b, x.Right, depth+1)
	case *Aggregate:
		var aggs []string
		for _, a := range x.Aggs {
			spec := a.Func
			if a.Star {
				spec += "(*)"
			} else if a.Arg != nil {
				spec += "(" + sql.FormatExpr(a.Arg) + ")"
			}
			aggs = append(aggs, spec+" AS "+a.OutName)
		}
		var groups []string
		for _, g := range x.GroupBy {
			groups = append(groups, sql.FormatExpr(g))
		}
		fmt.Fprintf(b, "%sAggregate(group=[%s] aggs=[%s])\n",
			indent, strings.Join(groups, ", "), strings.Join(aggs, ", "))
		writePlan(b, x.Input, depth+1)
	case *Project:
		var items []string
		for i, e := range x.Exprs {
			items = append(items, sql.FormatExpr(e)+" AS "+x.Names[i])
		}
		fmt.Fprintf(b, "%sProject(%s)\n", indent, strings.Join(items, ", "))
		writePlan(b, x.Input, depth+1)
	case *Distinct:
		fmt.Fprintf(b, "%sDistinct\n", indent)
		writePlan(b, x.Input, depth+1)
	case *Sort:
		var keys []string
		for _, k := range x.Keys {
			s := sql.FormatExpr(k.Expr)
			if k.Desc {
				s += " DESC"
			}
			keys = append(keys, s)
		}
		fmt.Fprintf(b, "%sSort(%s)", indent, strings.Join(keys, ", "))
		if x.TopK > 0 {
			fmt.Fprintf(b, " top=%d", x.TopK)
		}
		b.WriteString("\n")
		writePlan(b, x.Input, depth+1)
	case *Limit:
		fmt.Fprintf(b, "%sLimit(%d)\n", indent, x.N)
		writePlan(b, x.Input, depth+1)
	default:
		fmt.Fprintf(b, "%s%T\n", indent, n)
	}
}
