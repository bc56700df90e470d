package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser converts tokens into statements.
type parser struct {
	toks []Token
	pos  int
	src  string
	// depth is the height of the deepest expression parsed since the
	// enclosing expression began: parseExpr's result height.
	depth int
	// nest counts parseExpr calls in progress.
	nest int
}

// Parse parses a semicolon-separated sequence of statements.
func Parse(input string) ([]Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().Kind == TokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().Kind != TokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
	return stmts, nil
}

// ParseOne parses exactly one statement.
func ParseOne(input string) (Statement, error) {
	stmts, err := Parse(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *parser) peek() Token   { return p.toks[p.pos] }
func (p *parser) next() Token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	near := t.Text
	if t.Kind == TokEOF {
		near = "<eof>"
	}
	return fmt.Errorf("sql: %s (near %q at offset %d)", fmt.Sprintf(format, args...), near, t.Pos)
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errf("expected identifier")
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected a statement keyword")
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	default:
		return nil, p.errf("unsupported statement %s", t.Text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	// A FROM subquery recurses with no expression around it: it counts
	// against the parser's recursion bound too.
	p.nest++
	defer func() { p.nest-- }()
	if p.nest > maxExprNest {
		return nil, p.errTooDeep()
	}
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.acceptKw("DISTINCT")

	for {
		if p.acceptOp("*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				a, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.peek().Kind == TokIdent {
				item.Alias = p.next().Text
			}
			s.Items = append(s.Items, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKw("FROM") {
		first := true
		for {
			join := JoinNone
			explicit := false
			if !first {
				switch {
				case p.acceptOp(","):
					join = JoinComma
				case p.acceptKw("LEFT"):
					p.acceptKw("OUTER")
					if err := p.expectKw("JOIN"); err != nil {
						return nil, err
					}
					join, explicit = JoinLeft, true
				case p.acceptKw("INNER"):
					if err := p.expectKw("JOIN"); err != nil {
						return nil, err
					}
					join, explicit = JoinInner, true
				case p.acceptKw("JOIN"):
					join, explicit = JoinInner, true
				default:
					join = -1 // no more FROM items
				}
				if join == -1 {
					break
				}
			}
			item, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			item.Join = join
			if explicit {
				if err := p.expectKw("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				item.On = on
			}
			s.From = append(s.From, item)
			first = false
		}
	}

	if p.acceptKw("WHERE") {
		w, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				oi.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errf("expected a number after LIMIT")
		}
		p.pos++
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT value %q", t.Text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	item := FromItem{Version: -1}
	if p.acceptOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return item, err
		}
		if err := p.expectOp(")"); err != nil {
			return item, err
		}
		item.Sub = sub
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Table = name
		// Contextual time-travel clause: "FROM t VERSION <n>". VERSION is
		// not reserved (tables may have columns named version); the clause
		// is recognized only when the identifier is followed by a number.
		if t := p.peek(); t.Kind == TokIdent && t.Text == "version" &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokNumber {
			p.pos++
			v := p.next()
			n, err := strconv.ParseInt(v.Text, 10, 64)
			if err != nil {
				return item, p.errf("bad VERSION %q", v.Text)
			}
			item.Version = n
		}
	}
	if p.acceptKw("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	if item.Sub != nil && item.Alias == "" {
		return item, p.errf("subquery in FROM requires an alias")
	}
	return item, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = sub
		return ins, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		v, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, SetClause{Column: col, Value: v})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: table}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *parser) parseCreate() (*CreateTableStmt, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{Table: table}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ = strings.ToLower(typ)
		switch typ {
		case "int", "float", "text", "bool":
		default:
			return nil, p.errf("unsupported column type %q", typ)
		}
		ct.Columns = append(ct.Columns, ColDef{Name: name, Type: typ})
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

// Operator precedence levels.
const (
	precOr  = 1
	precAnd = 2
	precNot = 3
	precCmp = 4
	precAdd = 5
	precMul = 6
	precNeg = 7
)

// maxExprDepth bounds the height of an expression tree: the nodes on its
// longest root-to-leaf path, where a parenthesis adds no node. Every pass
// after the parser recurses over the tree, so without a bound a chain like
// 1+1+…+1, which the parser builds in a loop, overflows the goroutine stack
// in the printer or the planner. SQLite's SQLITE_MAX_EXPR_DEPTH defaults to
// the same 1000.
const maxExprDepth = 1000

// maxExprNest bounds the parser's own recursion, which parentheses deepen
// without deepening the tree. The printer parenthesizes every operator, so
// a tree within maxExprDepth prints with up to about twice as much nesting;
// the bound leaves room for that, so formatted statements parse back.
const maxExprNest = 3 * maxExprDepth

func (p *parser) errTooDeep() error {
	return p.errf("expression nests deeper than %d levels", maxExprDepth)
}

// parseExpr parses an expression binding at least as tightly as minPrec and
// folds its height into p.depth for the enclosing expression.
func (p *parser) parseExpr(minPrec int) (Expr, error) {
	p.nest++
	defer func() { p.nest-- }()
	if p.nest > maxExprNest {
		return nil, p.errTooDeep()
	}
	outer := p.depth
	e, h, err := p.parseBinary(minPrec)
	if err != nil {
		return nil, err
	}
	if h > maxExprDepth {
		return nil, p.errTooDeep()
	}
	p.depth = max(outer, h)
	return e, nil
}

// parseBinary is parseExpr's body: operators and postfix predicates folded
// left to right, with the height of the tree built. It stops once the
// height passes maxExprDepth.
func (p *parser) parseBinary(minPrec int) (Expr, int, error) {
	p.depth = 0
	lhs, err := p.parseUnary(minPrec)
	if err != nil {
		return nil, 0, err
	}
	h := p.depth + 1 // one node over the expressions it holds
	for h <= maxExprDepth {
		t := p.peek()
		var op string
		var prec int
		switch {
		case t.Kind == TokKeyword && t.Text == "OR":
			op, prec = "OR", precOr
		case t.Kind == TokKeyword && t.Text == "AND":
			op, prec = "AND", precAnd
		case t.Kind == TokOp && (t.Text == "=" || t.Text == "<" || t.Text == ">" ||
			t.Text == "<=" || t.Text == ">=" || t.Text == "<>" || t.Text == "!="):
			op, prec = t.Text, precCmp
			if op == "!=" {
				op = "<>"
			}
		case t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "||"):
			op, prec = t.Text, precAdd
		case t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "%"):
			op, prec = t.Text, precMul
		case t.Kind == TokKeyword && (t.Text == "BETWEEN" || t.Text == "IN" ||
			t.Text == "LIKE" || t.Text == "IS" || t.Text == "NOT"):
			// Postfix-style predicates at comparison precedence.
			if precCmp < minPrec {
				return lhs, h, nil
			}
			p.depth = 0
			post, err := p.parsePostfixPredicate(lhs)
			if err != nil {
				return nil, 0, err
			}
			if post == nil { // NOT was not part of a postfix predicate
				return lhs, h, nil
			}
			lhs, h = post, 1+max(h, p.depth)
			continue
		default:
			return lhs, h, nil
		}
		if prec < minPrec {
			return lhs, h, nil
		}
		p.pos++
		p.depth = 0
		rhs, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, 0, err
		}
		lhs, h = &Binary{Op: op, L: lhs, R: rhs}, 1+max(h, p.depth)
	}
	return lhs, h, nil
}

// parsePostfixPredicate handles x BETWEEN .. AND .., x [NOT] IN (...),
// x [NOT] LIKE p, x IS [NOT] NULL. Returns (nil, nil) if a leading NOT turns
// out not to start a postfix predicate.
func (p *parser) parsePostfixPredicate(x Expr) (Expr, error) {
	neg := false
	saved := p.save()
	if p.acceptKw("NOT") {
		if t := p.peek(); !(t.Kind == TokKeyword && (t.Text == "BETWEEN" || t.Text == "IN" || t.Text == "LIKE")) {
			p.restore(saved)
			return nil, nil
		}
		neg = true
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseExpr(precAdd)
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseExpr(precAdd)
		if err != nil {
			return nil, err
		}
		return &Between{X: x, Lo: lo, Hi: hi, Not: neg}, nil
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InList{X: x, Not: neg}
		if t := p.peek(); t.Kind == TokKeyword && t.Text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			for {
				e, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseExpr(precAdd)
		if err != nil {
			return nil, err
		}
		return &Like{X: x, Pattern: pat, Not: neg}, nil
	case p.acceptKw("IS"):
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: x, Not: not}, nil
	}
	return nil, p.errf("expected a predicate")
}

func (p *parser) parseUnary(minPrec int) (Expr, error) {
	t := p.peek()
	if t.Kind == TokKeyword && t.Text == "NOT" && minPrec <= precNot {
		p.pos++
		x, err := p.parseExpr(precNot)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	if t.Kind == TokOp && t.Text == "-" {
		p.pos++
		x, err := p.parseExpr(precNeg)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Lit{Kind: LitFloat, F: f}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &Lit{Kind: LitInt, I: i}, nil
	case t.Kind == TokString:
		p.pos++
		return &Lit{Kind: LitString, S: t.Text}, nil
	case t.Kind == TokKeyword:
		switch t.Text {
		case "TRUE":
			p.pos++
			return &Lit{Kind: LitBool, B: true}, nil
		case "FALSE":
			p.pos++
			return &Lit{Kind: LitBool, B: false}, nil
		case "NULL":
			p.pos++
			return &Lit{Kind: LitNull}, nil
		case "DATE":
			p.pos++
			if s := p.peek(); s.Kind == TokString {
				p.pos++
				return &Lit{Kind: LitString, S: s.Text}, nil
			}
			return nil, p.errf("expected a string after DATE")
		case "INTERVAL":
			p.pos++
			v := p.peek()
			if v.Kind != TokString {
				return nil, p.errf("expected a string after INTERVAL")
			}
			p.pos++
			unit, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &Interval{Value: v.Text, Unit: unit}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &Exists{Sub: sub}, nil
		case "NOT":
			// handled in parseUnary; reaching here means NOT EXISTS(...)
			p.pos++
			if p.acceptKw("EXISTS") {
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &Exists{Sub: sub, Not: true}, nil
			}
			return nil, p.errf("unexpected NOT")
		case "PREDICT":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			model, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			pr := &Predict{Model: model}
			for p.acceptOp(",") {
				a, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				pr.Args = append(pr.Args, a)
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return pr, nil
		case "SUBSTRING":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr(0)
			if err != nil {
				return nil, err
			}
			args := []Expr{arg}
			// SUBSTRING(x FROM a FOR b) or SUBSTRING(x, a, b)
			if p.acceptKw("FROM") {
				a, err := p.parseExpr(0)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.acceptKw("FOR") {
					b, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					args = append(args, b)
				}
			} else {
				for p.acceptOp(",") {
					a, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					args = append(args, a)
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: "substring", Args: args}, nil
		}
		return nil, p.errf("unexpected keyword %s in expression", t.Text)
	case t.Kind == TokOp && t.Text == "(":
		p.pos++
		if s := p.peek(); s.Kind == TokKeyword && s.Text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &Subquery{Sel: sub}, nil
		}
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.depth-- // a parenthesis adds no node: e is the operand itself
		return e, nil
	case t.Kind == TokIdent:
		p.pos++
		name := t.Text
		// Function call?
		if p.acceptOp("(") {
			fc := &FuncCall{Name: name}
			if p.acceptOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			fc.Distinct = p.acceptKw("DISTINCT")
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	}
	return nil, p.errf("unexpected token in expression")
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &Case{}
	if t := p.peek(); !(t.Kind == TokKeyword && t.Text == "WHEN") {
		op, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
