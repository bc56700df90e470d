package engine

// Vectorized expression compilation: the engine's one expression
// evaluator. Every expression — in SELECT, in DML and in row-mode PREDICT —
// compiles here into a kernel that evaluates a whole batch per call: one
// typed inner loop per operator, a shared null mask, and no per-row
// allocation or error check in the steady state.
//
// The batch ABI:
//
//   - A kernel is a vecFunc: it receives a RowSet and returns a *Vec whose
//     logical length is rs.N.
//   - A Vec is a typed vector. Column references alias table storage
//     (zero-copy); literals are Const vectors holding one physical element
//     broadcast to the batch length.
//   - Nulls are a side mask (nil when the vector has no nulls). Null slots
//     always hold the zero value of the type, matching how Column stores
//     NULLs, so a Vec can alias or become a Column without rewriting.
//   - Predicates reduce to []bool truth masks; filterGather turns a mask
//     into a selection vector ([]int32 row ids) and gathers once.
//
// Kernels use fast typed loops when both operands are non-null and of a
// directly comparable class; otherwise they fall back to a per-row loop
// over the shared scalar helpers in value.go (arith, Compare), so null
// propagation, error messages and NaN ordering are one definition.
// TestKernelInterpreterEquivalence checks both tiers against plain Go.
// compile.go holds the row-mode PREDICT op (the LevelUDF path).

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sql"
)

// Vec is a batch of values produced by a vectorized kernel.
//
// Err/ErrMask carry deferred row-level errors: a data-dependent failure
// (division by zero on row r) does not abort the kernel, it flags row r.
// Elementwise kernels union their operands' flags; AND/OR and CASE discard
// flags exactly on the rows SQL's short-circuit order never evaluates;
// consumers (filter, project, sort keys, aggregates, DML) surface any
// surviving flag via pendingErr. This gives guard-then-compute semantics
// (`b <> 0 AND a/b > 1`) under batch evaluation.
type Vec struct {
	Type    ColType
	Const   bool   // one physical element broadcast to the batch length
	Nulls   []bool // parallel null mask; nil means no nulls
	Err     error  // first deferred row error; nil when ErrMask is clear
	ErrMask []bool // rows carrying a deferred error; nil when none
	Ints    []int64
	Floats  []float64
	Strs    []string
	Bools   []bool
}

// vecFunc evaluates a compiled expression over a whole rowset.
type vecFunc func(rs *RowSet) (*Vec, error)

func newVec(t ColType, n int) *Vec {
	v := &Vec{Type: t}
	switch t {
	case TypeInt:
		v.Ints = make([]int64, n)
	case TypeFloat:
		v.Floats = make([]float64, n)
	case TypeString:
		v.Strs = make([]string, n)
	case TypeBool:
		v.Bools = make([]bool, n)
	}
	return v
}

func constVec(val Value) *Vec {
	v := newVec(val.Kind, 1)
	v.Const = true
	if val.Null {
		v.Nulls = []bool{true}
		return v
	}
	switch val.Kind {
	case TypeInt:
		v.Ints[0] = val.I
	case TypeFloat:
		v.Floats[0] = val.F
	case TypeString:
		v.Strs[0] = val.S
	case TypeBool:
		v.Bools[0] = val.B
	}
	return v
}

// colVec wraps a column as a vector without copying.
func colVec(c *Column) *Vec {
	return &Vec{Type: c.Type, Ints: c.Ints, Floats: c.Floats, Strs: c.Strs, Bools: c.Bools}
}

// phys is the physical element count (1 for Const vectors).
func (v *Vec) phys() int {
	if v.Const {
		return 1
	}
	switch v.Type {
	case TypeInt:
		return len(v.Ints)
	case TypeFloat:
		return len(v.Floats)
	case TypeString:
		return len(v.Strs)
	case TypeBool:
		return len(v.Bools)
	}
	return 0
}

// idx maps a logical row to a physical slot.
func (v *Vec) idx(i int) int {
	if v.Const {
		return 0
	}
	return i
}

func (v *Vec) isNull(i int) bool { return v.Nulls != nil && v.Nulls[v.idx(i)] }

// deferErr flags physical slot i with a row-level error (the slot keeps its
// zero value).
func (v *Vec) deferErr(i int, err error) {
	if v.ErrMask == nil {
		v.ErrMask = make([]bool, v.phys())
	}
	v.ErrMask[i] = true
	if v.Err == nil {
		v.Err = err
	}
}

// hasErr reports whether logical row i carries a deferred error.
func (v *Vec) hasErr(i int) bool { return v.Err != nil && v.ErrMask[v.idx(i)] }

// addErrsFrom unions src's deferred-error rows into dst, broadcasting a
// flagged Const operand to every row. Used by elementwise kernels, whose
// operands SQL evaluates on every row.
func (dst *Vec) addErrsFrom(src *Vec) {
	if src == nil || src.Err == nil {
		return
	}
	if src.Const {
		if !src.ErrMask[0] {
			return
		}
		if dst.ErrMask == nil {
			dst.ErrMask = make([]bool, dst.phys())
		}
		for i := range dst.ErrMask {
			dst.ErrMask[i] = true
		}
		if dst.Err == nil {
			dst.Err = src.Err
		}
		return
	}
	any := false
	for i, b := range src.ErrMask {
		if !b {
			continue
		}
		if dst.ErrMask == nil {
			dst.ErrMask = make([]bool, dst.phys())
		}
		j := i
		if dst.Const {
			j = 0
		}
		dst.ErrMask[j] = true
		any = true
	}
	if any && dst.Err == nil {
		dst.Err = src.Err
	}
}

// pendingErr surfaces a deferred row error if any of the n logical rows
// still carries one (a Const flag counts only when n > 0, since over zero
// rows the expression is never evaluated).
func (v *Vec) pendingErr(n int) error {
	if v == nil || v.Err == nil || n == 0 {
		return nil
	}
	for _, b := range v.ErrMask {
		if b {
			return v.Err
		}
	}
	return nil
}

// valueAt boxes logical row i as a Value (fallback paths and group output).
func (v *Vec) valueAt(i int) Value {
	i = v.idx(i)
	if v.Nulls != nil && v.Nulls[i] {
		return NullValue()
	}
	switch v.Type {
	case TypeInt:
		return IntValue(v.Ints[i])
	case TypeFloat:
		return FloatValue(v.Floats[i])
	case TypeString:
		return StringValue(v.Strs[i])
	case TypeBool:
		return BoolValue(v.Bools[i])
	}
	return NullValue()
}

// floatAt reads logical row i as float64 (numeric and bool vectors only).
func (v *Vec) floatAt(i int) float64 {
	i = v.idx(i)
	switch v.Type {
	case TypeInt:
		return float64(v.Ints[i])
	case TypeFloat:
		return v.Floats[i]
	case TypeBool:
		if v.Bools[i] {
			return 1
		}
	}
	return 0
}

// materialize expands a Const vector to n physical elements; non-const
// vectors are returned as-is.
func (v *Vec) materialize(n int) *Vec {
	if !v.Const {
		return v
	}
	out := newVec(v.Type, n)
	if v.Err != nil && v.ErrMask[0] {
		out.Err = v.Err
		out.ErrMask = make([]bool, n)
		for i := range out.ErrMask {
			out.ErrMask[i] = true
		}
	}
	if v.Nulls != nil && v.Nulls[0] {
		out.Nulls = make([]bool, n)
		for i := range out.Nulls {
			out.Nulls[i] = true
		}
		return out
	}
	switch v.Type {
	case TypeInt:
		for i := range out.Ints {
			out.Ints[i] = v.Ints[0]
		}
	case TypeFloat:
		for i := range out.Floats {
			out.Floats[i] = v.Floats[0]
		}
	case TypeString:
		for i := range out.Strs {
			out.Strs[i] = v.Strs[0]
		}
	case TypeBool:
		for i := range out.Bools {
			out.Bools[i] = v.Bools[0]
		}
	}
	return out
}

// toColumn converts the vector into a Column of type t over n logical rows,
// applying the same coercions (and rejections) as Column.Append: a NULL of
// any type stores the zero value. Same-typed vectors alias their backing
// storage; null slots already hold zero values.
func (v *Vec) toColumn(t ColType, n int) (Column, error) {
	if err := v.pendingErr(n); err != nil {
		return Column{}, err
	}
	m := v.materialize(n)
	if m.Type != t {
		out := newVec(t, n)
		for i := 0; i < n; i++ {
			if err := out.setFrom(i, m, i); err != nil {
				return Column{}, err
			}
		}
		m = out
	}
	return Column{Type: t, Ints: m.Ints, Floats: m.Floats, Strs: m.Strs, Bools: m.Bools}, nil
}

// setFrom assigns dst[i] = src[j] with the Append coercion matrix; nulls
// transfer to the mask and zero the slot.
func (dst *Vec) setFrom(i int, src *Vec, j int) error {
	return dst.setFromValue(i, src.valueAt(j))
}

// truthyMask reduces the vector to a physical-length truth mask (NULL is
// false). The mask is freshly allocated and owned by the caller.
func (v *Vec) truthyMask() []bool {
	return v.truthyMaskInto(make([]bool, v.phys()))
}

// truthyMaskInto is truthyMask writing into a caller-owned buffer of length
// phys() (the pooled-scratch path: appendTrue discards the mask immediately,
// so it borrows one from the morsel pool instead of allocating).
func (v *Vec) truthyMaskInto(m []bool) []bool {
	n := v.phys()
	switch v.Type {
	case TypeBool:
		copy(m, v.Bools[:n])
	case TypeInt:
		for i := 0; i < n; i++ {
			m[i] = v.Ints[i] != 0
		}
	case TypeFloat:
		for i := 0; i < n; i++ {
			m[i] = v.Floats[i] != 0
		}
	case TypeString:
		for i := 0; i < n; i++ {
			m[i] = v.Strs[i] != ""
		}
	}
	if v.Nulls != nil {
		for i := 0; i < n; i++ {
			if v.Nulls[i] {
				m[i] = false
			}
		}
	}
	return m
}

func boolVec(m []bool, konst bool) *Vec { return &Vec{Type: TypeBool, Bools: m, Const: konst} }

// appendTrue appends base+i to sel for every logical row i < n whose truth
// mask entry is set. The truth mask is pooled scratch: it lives only for
// this call.
func appendTrue(sel []int32, v *Vec, n, base int) []int32 {
	mp := getMask(v.phys())
	defer putMask(mp)
	m := v.truthyMaskInto(*mp)
	if v.Const {
		if m[0] {
			for i := 0; i < n; i++ {
				sel = append(sel, int32(base+i))
			}
		}
		return sel
	}
	for i, t := range m {
		if t {
			sel = append(sel, int32(base+i))
		}
	}
	return sel
}

// vecCompareRows orders logical rows a and b of one vector for ORDER BY:
// NULL sorts first and equals only NULL; numeric kinds compare as float64
// (so -0.0 ties with 0.0); NaN sorts after every number and equals itself,
// as PostgreSQL orders it — without a definite place for NaN the comparator
// is not a strict weak order and no sort over it is a sort.
func vecCompareRows(v *Vec, a, b int) int {
	an, bn := v.isNull(a), v.isNull(b)
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	ia, ib := v.idx(a), v.idx(b)
	switch v.Type {
	case TypeInt:
		x, y := float64(v.Ints[ia]), float64(v.Ints[ib])
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case TypeFloat:
		x, y := v.Floats[ia], v.Floats[ib]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		case math.IsNaN(x) != math.IsNaN(y):
			if math.IsNaN(y) {
				return -1
			}
			return 1
		}
	case TypeString:
		return strings.Compare(v.Strs[ia], v.Strs[ib])
	case TypeBool:
		x, y := v.Bools[ia], v.Bools[ib]
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// selectFloatCompare builds the selection vector of rows whose score
// satisfies (score op threshold) — the fused-threshold kernel shared with
// the PREDICT operator.
func selectFloatCompare(scores []float64, op string, thr float64) ([]int32, error) {
	sel := make([]int32, 0, len(scores)/4)
	switch op {
	case ">":
		for r, s := range scores {
			if s > thr {
				sel = append(sel, int32(r))
			}
		}
	case ">=":
		for r, s := range scores {
			if s >= thr {
				sel = append(sel, int32(r))
			}
		}
	case "<":
		for r, s := range scores {
			if s < thr {
				sel = append(sel, int32(r))
			}
		}
	case "<=":
		for r, s := range scores {
			if s <= thr {
				sel = append(sel, int32(r))
			}
		}
	case "=":
		for r, s := range scores {
			if s == thr {
				sel = append(sel, int32(r))
			}
		}
	case "<>":
		for r, s := range scores {
			if s != thr {
				sel = append(sel, int32(r))
			}
		}
	default:
		return nil, fmt.Errorf("engine: unsupported fused compare %q", op)
	}
	return sel, nil
}

// litValue materializes a literal as a Value.
func litValue(x *sql.Lit) Value {
	switch x.Kind {
	case sql.LitInt:
		return IntValue(x.I)
	case sql.LitFloat:
		return FloatValue(x.F)
	case sql.LitString:
		return StringValue(x.S)
	case sql.LitBool:
		return BoolValue(x.B)
	}
	return NullValue()
}

// compileVec compiles e against the schema into a batch kernel. Column
// references are resolved at compile time.
func compileVec(e sql.Expr, schema Schema, env *compileEnv) (vecFunc, error) {
	switch x := e.(type) {
	case *sql.ColRef:
		idx, err := schema.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return func(rs *RowSet) (*Vec, error) {
			return colVec(&rs.Cols[idx]), nil
		}, nil

	case *sql.Lit:
		v := constVec(litValue(x))
		return func(rs *RowSet) (*Vec, error) { return v, nil }, nil

	case *sql.Unary:
		return compileVecUnary(x, schema, env)

	case *sql.Binary:
		return compileVecBinary(x, schema, env)

	case *sql.Between:
		return compileVecBetween(x, schema, env)

	case *sql.InList:
		return compileVecInList(x, schema, env)

	case *sql.Like:
		return compileVecLike(x, schema, env)

	case *sql.IsNull:
		inner, err := compileVec(x.X, schema, env)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(rs *RowSet) (*Vec, error) {
			v, err := inner(rs)
			if err != nil {
				return nil, err
			}
			m := make([]bool, v.phys())
			if v.Nulls != nil {
				copy(m, v.Nulls[:len(m)])
			}
			if not {
				for i := range m {
					m[i] = !m[i]
				}
			}
			out := boolVec(m, v.Const)
			out.addErrsFrom(v)
			return out, nil
		}, nil

	case *sql.Case:
		return compileVecCase(x, schema, env)

	case *sql.FuncCall:
		return compileVecFunc(x, schema, env)

	case *sql.Predict:
		return compileVecPredict(x, schema, env)

	case *sql.Interval:
		return nil, fmt.Errorf("engine: INTERVAL is only valid in date arithmetic")

	case *sql.Exists, *sql.Subquery:
		return nil, fmt.Errorf("engine: subqueries are not executable")
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", e)
}

// setFromValue assigns one boxed value into slot i with Append coercions.
func (dst *Vec) setFromValue(i int, v Value) error {
	if v.Null {
		if dst.Nulls == nil {
			dst.Nulls = make([]bool, dst.phys())
		}
		dst.Nulls[i] = true
		return nil
	}
	switch dst.Type {
	case TypeInt:
		switch v.Kind {
		case TypeInt:
			dst.Ints[i] = v.I
		case TypeFloat:
			dst.Ints[i] = int64(v.F)
		default:
			return fmt.Errorf("engine: cannot store %s into int column", v.Kind)
		}
	case TypeFloat:
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("engine: cannot store %s into float column", v.Kind)
		}
		dst.Floats[i] = f
	case TypeString:
		if v.Kind != TypeString {
			return fmt.Errorf("engine: cannot store %s into text column", v.Kind)
		}
		dst.Strs[i] = v.S
	case TypeBool:
		if v.Kind != TypeBool {
			return fmt.Errorf("engine: cannot store %s into bool column", v.Kind)
		}
		dst.Bools[i] = v.B
	}
	return nil
}

func compileVecUnary(x *sql.Unary, schema Schema, env *compileEnv) (vecFunc, error) {
	inner, err := compileVec(x.X, schema, env)
	if err != nil {
		return nil, err
	}
	if x.Op == "NOT" {
		return func(rs *RowSet) (*Vec, error) {
			v, err := inner(rs)
			if err != nil {
				return nil, err
			}
			m := v.truthyMask()
			for i := range m {
				m[i] = !m[i]
			}
			out := boolVec(m, v.Const)
			out.addErrsFrom(v)
			return out, nil
		}, nil
	}
	return func(rs *RowSet) (*Vec, error) {
		v, err := inner(rs)
		if err != nil {
			return nil, err
		}
		n := v.phys()
		switch v.Type {
		case TypeInt:
			out := newVec(TypeInt, n)
			out.Const = v.Const
			for i := 0; i < n; i++ {
				out.Ints[i] = -v.Ints[i]
			}
			// Negating NULL yields a non-null zero, not NULL: the slot
			// is zeroed and the null mask is not carried over.
			if v.Nulls != nil {
				for i := 0; i < n; i++ {
					if v.Nulls[i] {
						out.Ints[i] = 0
					}
				}
			}
			out.addErrsFrom(v)
			return out, nil
		case TypeFloat:
			out := newVec(TypeFloat, n)
			out.Const = v.Const
			for i := 0; i < n; i++ {
				out.Floats[i] = -v.Floats[i]
			}
			if v.Nulls != nil {
				for i := 0; i < n; i++ {
					if v.Nulls[i] {
						out.Floats[i] = 0
					}
				}
			}
			out.addErrsFrom(v)
			return out, nil
		}
		if rs.N == 0 {
			return newVec(v.Type, 0), nil
		}
		return nil, fmt.Errorf("engine: cannot negate %s", v.Type)
	}, nil
}

func compileVecBinary(x *sql.Binary, schema Schema, env *compileEnv) (vecFunc, error) {
	// Date +/- INTERVAL: constant shift over a date-string vector.
	if iv, ok := x.R.(*sql.Interval); ok && (x.Op == "+" || x.Op == "-") {
		inner, err := compileVec(x.L, schema, env)
		if err != nil {
			return nil, err
		}
		n := 0
		if _, err := fmt.Sscanf(iv.Value, "%d", &n); err != nil {
			return nil, fmt.Errorf("engine: bad interval value %q", iv.Value)
		}
		if x.Op == "-" {
			n = -n
		}
		unit := iv.Unit
		return func(rs *RowSet) (*Vec, error) {
			v, err := inner(rs)
			if err != nil {
				return nil, err
			}
			p := v.phys()
			if v.Type != TypeString {
				if rs.N == 0 {
					return newVec(TypeString, 0), nil
				}
				return nil, fmt.Errorf("engine: interval arithmetic requires a date string")
			}
			out := newVec(TypeString, p)
			out.Const = v.Const
			for i := 0; i < p; i++ {
				if v.Nulls != nil && v.Nulls[i] {
					return nil, fmt.Errorf("engine: interval arithmetic requires a date string")
				}
				d, err := AddInterval(v.Strs[i], n, unit)
				if err != nil {
					return nil, err
				}
				out.Strs[i] = d
			}
			out.addErrsFrom(v)
			return out, nil
		}, nil
	}

	lf, err := compileVec(x.L, schema, env)
	if err != nil {
		return nil, err
	}
	rf, err := compileVec(x.R, schema, env)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case "AND", "OR":
		isAnd := op == "AND"
		return func(rs *RowSet) (*Vec, error) {
			lv, err := lf(rs)
			if err != nil {
				return nil, err
			}
			lm := lv.truthyMask()
			if lv.Const {
				if lv.hasErr(0) {
					// Left errors on every row; the right side is never
					// reached.
					out := boolVec([]bool{false}, true)
					out.addErrsFrom(lv)
					return out, nil
				}
				// SQL short circuit: a constant left side decides.
				if isAnd && !lm[0] {
					return boolVec([]bool{false}, true), nil
				}
				if !isAnd && lm[0] {
					return boolVec([]bool{true}, true), nil
				}
				rv, err := rf(rs)
				if err != nil {
					return nil, err
				}
				out := boolVec(rv.truthyMask(), rv.Const)
				out.addErrsFrom(rv)
				return out, nil
			}
			rv, err := rf(rs)
			if err != nil {
				return nil, err
			}
			rm := rv.truthyMask()
			// Right-side deferred errors count only on rows where the
			// short circuit evaluates the right side (left truthy for AND,
			// left non-truthy for OR). Gate before the value combine
			// overwrites lm.
			var gatedErrs []bool
			if rv.Err != nil {
				gatedErrs = make([]bool, len(lm))
				for i := range lm {
					gate := lm[i]
					if !isAnd {
						gate = !gate
					}
					if gate && rv.ErrMask[rv.idx(i)] {
						gatedErrs[i] = true
					}
				}
			}
			if rv.Const {
				c := rm[0]
				if isAnd {
					if !c {
						for i := range lm {
							lm[i] = false
						}
					}
				} else if c {
					for i := range lm {
						lm[i] = true
					}
				}
			} else if isAnd {
				for i := range lm {
					lm[i] = lm[i] && rm[i]
				}
			} else {
				for i := range lm {
					lm[i] = lm[i] || rm[i]
				}
			}
			out := boolVec(lm, false)
			out.addErrsFrom(lv) // left always evaluated
			if gatedErrs != nil {
				for i, b := range gatedErrs {
					if b {
						out.deferErr(i, rv.Err)
					}
				}
			}
			return out, nil
		}, nil

	case "=", "<>", "<", "<=", ">", ">=":
		return func(rs *RowSet) (*Vec, error) {
			lv, err := lf(rs)
			if err != nil {
				return nil, err
			}
			rv, err := rf(rs)
			if err != nil {
				return nil, err
			}
			return cmpVec(op, lv, rv, rs.N)
		}, nil

	case "+", "-", "*", "/", "%":
		return func(rs *RowSet) (*Vec, error) {
			lv, err := lf(rs)
			if err != nil {
				return nil, err
			}
			rv, err := rf(rs)
			if err != nil {
				return nil, err
			}
			return arithVec(op, lv, rv, rs.N)
		}, nil

	case "||":
		return func(rs *RowSet) (*Vec, error) {
			lv, err := lf(rs)
			if err != nil {
				return nil, err
			}
			rv, err := rf(rs)
			if err != nil {
				return nil, err
			}
			konst := lv.Const && rv.Const
			n := rs.N
			if konst {
				n = 1
			}
			out := newVec(TypeString, n)
			out.Const = konst
			for i := 0; i < n; i++ {
				out.Strs[i] = lv.valueAt(i).String() + rv.valueAt(i).String()
			}
			out.addErrsFrom(lv)
			out.addErrsFrom(rv)
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported operator %q", op)
}

// number covers the element types of numeric vectors.
type number interface{ ~int64 | ~float64 }

// cmpVec compares two vectors with Compare's semantics: NULL on either side
// yields false; numeric kinds compare as float64 (so NaN is "equal" to
// everything); mismatched classes error.
func cmpVec(op string, lv, rv *Vec, n int) (*Vec, error) {
	konst := lv.Const && rv.Const
	ln := isNumeric(lv.Type)
	rn := isNumeric(rv.Type)
	fast := lv.Nulls == nil && rv.Nulls == nil &&
		((ln && rn) || (lv.Type == TypeString && rv.Type == TypeString))
	if !fast {
		return cmpVecFallback(op, lv, rv, n, konst)
	}
	pn := n
	if konst {
		pn = 1
	}
	dst := make([]bool, pn)
	if ln {
		switch {
		case lv.Type == TypeInt && rv.Type == TypeInt:
			cmpNum(op, lv.Const, rv.Const, lv.Ints, rv.Ints, dst)
		case lv.Type == TypeInt:
			cmpNum(op, lv.Const, rv.Const, lv.Ints, rv.Floats, dst)
		case rv.Type == TypeInt:
			cmpNum(op, lv.Const, rv.Const, lv.Floats, rv.Ints, dst)
		default:
			cmpNum(op, lv.Const, rv.Const, lv.Floats, rv.Floats, dst)
		}
	} else {
		cmpStr(op, lv.Const, rv.Const, lv.Strs, rv.Strs, dst)
	}
	out := boolVec(dst, konst)
	out.addErrsFrom(lv)
	out.addErrsFrom(rv)
	return out, nil
}

// cmpNum compares numeric slices as float64 — exactly what Compare does for
// numeric kinds, including its NaN behavior (NaN neither < nor >, so "=",
// "<=", ">=" hold against anything). Const operands broadcast via stride 0.
func cmpNum[A, B number](op string, lc, rc bool, a []A, b []B, dst []bool) {
	sa, sb := 1, 1
	if lc {
		sa = 0
	}
	if rc {
		sb = 0
	}
	ia, ib := 0, 0
	switch op {
	case "=":
		for i := range dst {
			x, y := float64(a[ia]), float64(b[ib])
			dst[i] = !(x < y) && !(x > y)
			ia += sa
			ib += sb
		}
	case "<>":
		for i := range dst {
			x, y := float64(a[ia]), float64(b[ib])
			dst[i] = x < y || x > y
			ia += sa
			ib += sb
		}
	case "<":
		for i := range dst {
			dst[i] = float64(a[ia]) < float64(b[ib])
			ia += sa
			ib += sb
		}
	case "<=":
		for i := range dst {
			dst[i] = !(float64(a[ia]) > float64(b[ib]))
			ia += sa
			ib += sb
		}
	case ">":
		for i := range dst {
			dst[i] = float64(a[ia]) > float64(b[ib])
			ia += sa
			ib += sb
		}
	case ">=":
		for i := range dst {
			dst[i] = !(float64(a[ia]) < float64(b[ib]))
			ia += sa
			ib += sb
		}
	}
}

func cmpStr(op string, lc, rc bool, a, b []string, dst []bool) {
	sa, sb := 1, 1
	if lc {
		sa = 0
	}
	if rc {
		sb = 0
	}
	ia, ib := 0, 0
	switch op {
	case "=":
		for i := range dst {
			dst[i] = a[ia] == b[ib]
			ia += sa
			ib += sb
		}
	case "<>":
		for i := range dst {
			dst[i] = a[ia] != b[ib]
			ia += sa
			ib += sb
		}
	case "<":
		for i := range dst {
			dst[i] = a[ia] < b[ib]
			ia += sa
			ib += sb
		}
	case "<=":
		for i := range dst {
			dst[i] = a[ia] <= b[ib]
			ia += sa
			ib += sb
		}
	case ">":
		for i := range dst {
			dst[i] = a[ia] > b[ib]
			ia += sa
			ib += sb
		}
	case ">=":
		for i := range dst {
			dst[i] = a[ia] >= b[ib]
			ia += sa
			ib += sb
		}
	}
}

// cmpVecFallback handles null-bearing or mixed-class operands one row at a
// time via the scalar Compare.
func cmpVecFallback(op string, lv, rv *Vec, n int, konst bool) (*Vec, error) {
	if konst {
		n = 1
	}
	dst := make([]bool, n)
	for i := 0; i < n; i++ {
		a := lv.valueAt(i)
		b := rv.valueAt(i)
		if a.Null || b.Null {
			continue
		}
		c, err := Compare(a, b)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			dst[i] = c == 0
		case "<>":
			dst[i] = c != 0
		case "<":
			dst[i] = c < 0
		case "<=":
			dst[i] = c <= 0
		case ">":
			dst[i] = c > 0
		case ">=":
			dst[i] = c >= 0
		}
	}
	out := boolVec(dst, konst)
	out.addErrsFrom(lv)
	out.addErrsFrom(rv)
	return out, nil
}

// arithVec evaluates lv op rv. Both-int (except "/") stays int64; anything
// else numeric runs in float64, mirroring arith.
func arithVec(op string, lv, rv *Vec, n int) (*Vec, error) {
	konst := lv.Const && rv.Const
	pn := n
	if konst {
		pn = 1
	}
	if lv.Nulls != nil || rv.Nulls != nil ||
		!numericOrBool(lv.Type) || !numericOrBool(rv.Type) {
		return arithVecFallback(op, lv, rv, pn, konst)
	}
	if lv.Type == TypeInt && rv.Type == TypeInt && op != "/" {
		out := newVec(TypeInt, pn)
		out.Const = konst
		if err := arithInt(op, lv.Const, rv.Const, lv.Ints, rv.Ints, out); err != nil {
			return nil, err
		}
		out.addErrsFrom(lv)
		out.addErrsFrom(rv)
		return out, nil
	}
	out := newVec(TypeFloat, pn)
	out.Const = konst
	var err error
	switch {
	case lv.Type != TypeFloat && rv.Type != TypeFloat:
		err = arithFloat(op, lv.Const, rv.Const, intsOf(lv), intsOf(rv), out)
	case lv.Type != TypeFloat:
		err = arithFloat(op, lv.Const, rv.Const, intsOf(lv), rv.Floats, out)
	case rv.Type != TypeFloat:
		err = arithFloat(op, lv.Const, rv.Const, lv.Floats, intsOf(rv), out)
	default:
		err = arithFloat(op, lv.Const, rv.Const, lv.Floats, rv.Floats, out)
	}
	if err != nil {
		return nil, err
	}
	out.addErrsFrom(lv)
	out.addErrsFrom(rv)
	return out, nil
}

func numericOrBool(t ColType) bool { return t == TypeInt || t == TypeFloat || t == TypeBool }

// intsOf views an int or bool vector as []int64 (bools convert, 0/1).
func intsOf(v *Vec) []int64 {
	if v.Type == TypeInt {
		return v.Ints
	}
	out := make([]int64, len(v.Bools))
	for i, b := range v.Bools {
		if b {
			out[i] = 1
		}
	}
	return out
}

func arithInt(op string, lc, rc bool, a, b []int64, out *Vec) error {
	dst := out.Ints
	sa, sb := 1, 1
	if lc {
		sa = 0
	}
	if rc {
		sb = 0
	}
	ia, ib := 0, 0
	switch op {
	case "+":
		for i := range dst {
			dst[i] = a[ia] + b[ib]
			ia += sa
			ib += sb
		}
	case "-":
		for i := range dst {
			dst[i] = a[ia] - b[ib]
			ia += sa
			ib += sb
		}
	case "*":
		for i := range dst {
			dst[i] = a[ia] * b[ib]
			ia += sa
			ib += sb
		}
	case "%":
		for i := range dst {
			if y := b[ib]; y != 0 {
				dst[i] = a[ia] % y
			} else {
				// Deferred: an enclosing guard may discard this row.
				out.deferErr(i, errModuloZero)
			}
			ia += sa
			ib += sb
		}
	default:
		return fmt.Errorf("engine: unsupported arithmetic %q", op)
	}
	return nil
}

func arithFloat[A, B number](op string, lc, rc bool, a []A, b []B, out *Vec) error {
	dst := out.Floats
	sa, sb := 1, 1
	if lc {
		sa = 0
	}
	if rc {
		sb = 0
	}
	ia, ib := 0, 0
	switch op {
	case "+":
		for i := range dst {
			dst[i] = float64(a[ia]) + float64(b[ib])
			ia += sa
			ib += sb
		}
	case "-":
		for i := range dst {
			dst[i] = float64(a[ia]) - float64(b[ib])
			ia += sa
			ib += sb
		}
	case "*":
		for i := range dst {
			dst[i] = float64(a[ia]) * float64(b[ib])
			ia += sa
			ib += sb
		}
	case "/":
		for i := range dst {
			if y := float64(b[ib]); y != 0 {
				dst[i] = float64(a[ia]) / y
			} else {
				// Deferred: an enclosing guard may discard this row.
				out.deferErr(i, errDivZero)
			}
			ia += sa
			ib += sb
		}
	case "%":
		for i := range dst {
			dst[i] = math.Mod(float64(a[ia]), float64(b[ib]))
			ia += sa
			ib += sb
		}
	default:
		return fmt.Errorf("engine: unsupported arithmetic %q", op)
	}
	return nil
}

// arithVecFallback routes null-bearing or oddly-typed operands through the
// scalar arith helper, one row at a time.
func arithVecFallback(op string, lv, rv *Vec, pn int, konst bool) (*Vec, error) {
	t := TypeFloat
	if lv.Type == TypeInt && rv.Type == TypeInt && op != "/" {
		t = TypeInt
	}
	out := newVec(t, pn)
	out.Const = konst
	for i := 0; i < pn; i++ {
		v, err := arith(op, lv.valueAt(i), rv.valueAt(i))
		if err != nil {
			// Data-dependent failure: flag the row instead of aborting, so
			// an enclosing guard (AND/OR/CASE) can still discard it.
			out.deferErr(i, err)
			continue
		}
		if err := out.setFromValue(i, v); err != nil {
			return nil, err
		}
	}
	out.addErrsFrom(lv)
	out.addErrsFrom(rv)
	return out, nil
}

func compileVecBetween(x *sql.Between, schema Schema, env *compileEnv) (vecFunc, error) {
	xf, err := compileVec(x.X, schema, env)
	if err != nil {
		return nil, err
	}
	lof, err := compileVec(x.Lo, schema, env)
	if err != nil {
		return nil, err
	}
	hif, err := compileVec(x.Hi, schema, env)
	if err != nil {
		return nil, err
	}
	not := x.Not
	return func(rs *RowSet) (*Vec, error) {
		v, err := xf(rs)
		if err != nil {
			return nil, err
		}
		lo, err := lof(rs)
		if err != nil {
			return nil, err
		}
		hi, err := hif(rs)
		if err != nil {
			return nil, err
		}
		konst := v.Const && lo.Const && hi.Const
		pn := rs.N
		if konst {
			pn = 1
		}
		dst := make([]bool, pn)
		if v.Nulls == nil && lo.Nulls == nil && hi.Nulls == nil &&
			isNumeric(v.Type) && isNumeric(lo.Type) && isNumeric(hi.Type) {
			// c1 >= 0 && c2 <= 0 under float Compare semantics is
			// !(v < lo) && !(v > hi); NaN falls in every range.
			for i := 0; i < pn; i++ {
				f := v.floatAt(i)
				in := !(f < lo.floatAt(i)) && !(f > hi.floatAt(i))
				dst[i] = in != not
			}
			out := boolVec(dst, konst)
			out.addErrsFrom(v)
			out.addErrsFrom(lo)
			out.addErrsFrom(hi)
			return out, nil
		}
		for i := 0; i < pn; i++ {
			c1, err := Compare(v.valueAt(i), lo.valueAt(i))
			if err != nil {
				return nil, err
			}
			c2, err := Compare(v.valueAt(i), hi.valueAt(i))
			if err != nil {
				return nil, err
			}
			in := c1 >= 0 && c2 <= 0
			dst[i] = in != not
		}
		out := boolVec(dst, konst)
		out.addErrsFrom(v)
		out.addErrsFrom(lo)
		out.addErrsFrom(hi)
		return out, nil
	}, nil
}

func compileVecInList(x *sql.InList, schema Schema, env *compileEnv) (vecFunc, error) {
	if x.Sub != nil {
		return nil, fmt.Errorf("engine: IN subqueries are not executable")
	}
	xf, err := compileVec(x.X, schema, env)
	if err != nil {
		return nil, err
	}
	elems := make([]vecFunc, len(x.List))
	for i, e := range x.List {
		ef, err := compileVec(e, schema, env)
		if err != nil {
			return nil, err
		}
		elems[i] = ef
	}
	not := x.Not
	return func(rs *RowSet) (*Vec, error) {
		v, err := xf(rs)
		if err != nil {
			return nil, err
		}
		evs := make([]*Vec, len(elems))
		konst := v.Const
		allConstStr := v.Type == TypeString && v.Nulls == nil
		for i, ef := range elems {
			ev, err := ef(rs)
			if err != nil {
				return nil, err
			}
			evs[i] = ev
			konst = konst && ev.Const
			if !ev.Const || ev.Type != TypeString || ev.Nulls != nil {
				allConstStr = false
			}
		}
		pn := rs.N
		if konst {
			pn = 1
		}
		dst := make([]bool, pn)
		if allConstStr && !v.Const {
			// Common shape: text column IN ('a', 'b', ...).
			list := make([]string, len(evs))
			for i, ev := range evs {
				list[i] = ev.Strs[0]
			}
			for i := 0; i < pn; i++ {
				s := v.Strs[i]
				hit := false
				for _, e := range list {
					if s == e {
						hit = true
						break
					}
				}
				dst[i] = hit != not
			}
			out := boolVec(dst, false)
			out.addErrsFrom(v)
			return out, nil
		}
		for i := 0; i < pn; i++ {
			a := v.valueAt(i)
			hit := false
			for _, ev := range evs {
				// Comparison errors mean "no match".
				if c, err := Compare(a, ev.valueAt(i)); err == nil && c == 0 {
					hit = true
					break
				}
			}
			dst[i] = hit != not
		}
		out := boolVec(dst, konst)
		out.addErrsFrom(v)
		for _, ev := range evs {
			out.addErrsFrom(ev)
		}
		return out, nil
	}, nil
}

func compileVecLike(x *sql.Like, schema Schema, env *compileEnv) (vecFunc, error) {
	xf, err := compileVec(x.X, schema, env)
	if err != nil {
		return nil, err
	}
	pf, err := compileVec(x.Pattern, schema, env)
	if err != nil {
		return nil, err
	}
	not := x.Not
	return func(rs *RowSet) (*Vec, error) {
		v, err := xf(rs)
		if err != nil {
			return nil, err
		}
		p, err := pf(rs)
		if err != nil {
			return nil, err
		}
		if v.Type != TypeString || p.Type != TypeString {
			if rs.N == 0 {
				return boolVec(nil, false), nil
			}
			return nil, fmt.Errorf("engine: LIKE requires strings")
		}
		konst := v.Const && p.Const
		pn := rs.N
		if konst {
			pn = 1
		}
		dst := make([]bool, pn)
		for i := 0; i < pn; i++ {
			m := likeMatch(v.Strs[v.idx(i)], p.Strs[p.idx(i)])
			dst[i] = m != not
		}
		out := boolVec(dst, konst)
		out.addErrsFrom(v)
		out.addErrsFrom(p)
		return out, nil
	}, nil
}

func compileVecCase(x *sql.Case, schema Schema, env *compileEnv) (vecFunc, error) {
	var operand vecFunc
	var err error
	if x.Operand != nil {
		operand, err = compileVec(x.Operand, schema, env)
		if err != nil {
			return nil, err
		}
	}
	conds := make([]vecFunc, len(x.Whens))
	thens := make([]vecFunc, len(x.Whens))
	for i, w := range x.Whens {
		conds[i], err = compileVec(w.Cond, schema, env)
		if err != nil {
			return nil, err
		}
		thens[i], err = compileVec(w.Then, schema, env)
		if err != nil {
			return nil, err
		}
	}
	var elseFn vecFunc
	if x.Else != nil {
		elseFn, err = compileVec(x.Else, schema, env)
		if err != nil {
			return nil, err
		}
	}
	outType, err := inferType(x, schema)
	if err != nil {
		return nil, err
	}
	return func(rs *RowSet) (*Vec, error) {
		n := rs.N
		var opv *Vec
		if operand != nil {
			v, err := operand(rs)
			if err != nil {
				return nil, err
			}
			opv = v
		}
		condVecs := make([]*Vec, len(conds))
		condMasks := make([][]bool, len(conds))
		thenVecs := make([]*Vec, len(thens))
		for i := range conds {
			cv, err := conds[i](rs)
			if err != nil {
				return nil, err
			}
			condVecs[i] = cv
			if opv != nil {
				m := make([]bool, n)
				for r := 0; r < n; r++ {
					c, err := Compare(opv.valueAt(r), cv.valueAt(r))
					if err != nil {
						return nil, err
					}
					m[r] = c == 0
				}
				condMasks[i] = m
			} else {
				m := cv.truthyMask()
				if cv.Const {
					e := make([]bool, n)
					if m[0] {
						for r := range e {
							e[r] = true
						}
					}
					m = e
				}
				condMasks[i] = m
			}
			tv, err := thens[i](rs)
			if err != nil {
				return nil, err
			}
			thenVecs[i] = tv
		}
		var elseVec *Vec
		if elseFn != nil {
			ev, err := elseFn(rs)
			if err != nil {
				return nil, err
			}
			elseVec = ev
		}
		// Per-row branch selection in SQL evaluation order: a deferred
		// error counts only on the inputs that order touches for that row
		// (operand, conditions up to the first match, the selected
		// branch). Everything else is discarded — preserving the
		// guard-then-compute idiom (CASE WHEN b = 0 THEN 0 ELSE a / b END).
		out := newVec(outType, n)
	rows:
		for r := 0; r < n; r++ {
			if opv != nil && opv.hasErr(r) {
				out.deferErr(r, opv.Err)
				continue
			}
			for i := range condMasks {
				if condVecs[i].hasErr(r) {
					out.deferErr(r, condVecs[i].Err)
					continue rows
				}
				if condMasks[i][r] {
					if thenVecs[i].hasErr(r) {
						out.deferErr(r, thenVecs[i].Err)
						continue rows
					}
					if err := out.setFrom(r, thenVecs[i], r); err != nil {
						return nil, err
					}
					continue rows
				}
			}
			if elseVec != nil {
				if elseVec.hasErr(r) {
					out.deferErr(r, elseVec.Err)
					continue
				}
				if err := out.setFrom(r, elseVec, r); err != nil {
					return nil, err
				}
				continue
			}
			if out.Nulls == nil {
				out.Nulls = make([]bool, n)
			}
			out.Nulls[r] = true
		}
		return out, nil
	}, nil
}

func compileVecFunc(x *sql.FuncCall, schema Schema, env *compileEnv) (vecFunc, error) {
	switch x.Name {
	case "count", "sum", "avg", "min", "max":
		return nil, fmt.Errorf("engine: aggregate %s in scalar context", x.Name)
	}
	args := make([]vecFunc, len(x.Args))
	for i, a := range x.Args {
		af, err := compileVec(a, schema, env)
		if err != nil {
			return nil, err
		}
		args[i] = af
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	// strAt mirrors Value.S access: non-string values read as "".
	strAt := func(v *Vec, i int) string {
		if v.Type != TypeString {
			return ""
		}
		return v.Strs[v.idx(i)]
	}
	switch x.Name {
	case "substring":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("engine: substring expects 2 or 3 arguments")
		}
		return func(rs *RowSet) (*Vec, error) {
			sv, err := args[0](rs)
			if err != nil {
				return nil, err
			}
			fromV, err := args[1](rs)
			if err != nil {
				return nil, err
			}
			var lenV *Vec
			if len(args) == 3 {
				lenV, err = args[2](rs)
				if err != nil {
					return nil, err
				}
			}
			intArg := func(v *Vec, i int) int {
				j := v.idx(i)
				if v.Type == TypeFloat {
					return int(v.Floats[j])
				}
				if v.Type == TypeInt {
					return int(v.Ints[j])
				}
				return 0
			}
			out := newVec(TypeString, rs.N)
			for i := 0; i < rs.N; i++ {
				s := strAt(sv, i)
				start := intArg(fromV, i) - 1 // SQL is 1-based
				if start < 0 {
					start = 0
				}
				if start > len(s) {
					start = len(s)
				}
				end := len(s)
				if lenV != nil {
					if l := intArg(lenV, i); start+l < end {
						end = start + l
					}
					if end < start {
						end = start // negative length yields the empty string
					}
				}
				out.Strs[i] = s[start:end]
			}
			out.addErrsFrom(sv)
			out.addErrsFrom(fromV)
			out.addErrsFrom(lenV)
			return out, nil
		}, nil
	case "length":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(rs *RowSet) (*Vec, error) {
			v, err := args[0](rs)
			if err != nil {
				return nil, err
			}
			out := newVec(TypeInt, v.phys())
			out.Const = v.Const
			if v.Type == TypeString {
				for i := range out.Ints {
					out.Ints[i] = int64(len(v.Strs[i]))
				}
			}
			out.addErrsFrom(v)
			return out, nil
		}, nil
	case "upper", "lower":
		if err := need(1); err != nil {
			return nil, err
		}
		up := x.Name == "upper"
		return func(rs *RowSet) (*Vec, error) {
			v, err := args[0](rs)
			if err != nil {
				return nil, err
			}
			out := newVec(TypeString, v.phys())
			out.Const = v.Const
			if v.Type == TypeString {
				for i := range out.Strs {
					if up {
						out.Strs[i] = strings.ToUpper(v.Strs[i])
					} else {
						out.Strs[i] = strings.ToLower(v.Strs[i])
					}
				}
			}
			out.addErrsFrom(v)
			return out, nil
		}, nil
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(rs *RowSet) (*Vec, error) {
			v, err := args[0](rs)
			if err != nil {
				return nil, err
			}
			p := v.phys()
			switch v.Type {
			case TypeInt:
				out := newVec(TypeInt, p)
				out.Const = v.Const
				out.Nulls = v.Nulls
				for i := 0; i < p; i++ {
					if x := v.Ints[i]; x < 0 {
						out.Ints[i] = -x
					} else {
						out.Ints[i] = x
					}
				}
				out.addErrsFrom(v)
				return out, nil
			case TypeFloat:
				out := newVec(TypeFloat, p)
				out.Const = v.Const
				out.Nulls = v.Nulls
				for i := 0; i < p; i++ {
					out.Floats[i] = math.Abs(v.Floats[i])
				}
				out.addErrsFrom(v)
				return out, nil
			}
			if rs.N == 0 {
				return newVec(v.Type, 0), nil
			}
			return nil, fmt.Errorf("engine: abs of %s", v.Type)
		}, nil
	case "round":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(rs *RowSet) (*Vec, error) {
			v, err := args[0](rs)
			if err != nil {
				return nil, err
			}
			if !numericOrBool(v.Type) {
				if rs.N == 0 {
					return newVec(TypeFloat, 0), nil
				}
				return nil, fmt.Errorf("engine: %s is not numeric", v.Type)
			}
			p := v.phys()
			out := newVec(TypeFloat, p)
			out.Const = v.Const
			for i := 0; i < p; i++ {
				out.Floats[i] = math.Round(v.floatAt(i))
			}
			out.addErrsFrom(v)
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown function %q", x.Name)
}
