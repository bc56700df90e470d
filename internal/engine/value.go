// Package engine is the columnar, vectorized query engine that plays the
// role of the DBMS runtime in the Flock reproduction: typed columnar
// storage, a batch expression compiler (vector.go) whose kernels evaluate
// whole columns per call with typed inner loops and null masks, typed
// multi-column hash tables for aggregation/distinct/joins (hash.go),
// volcano-style physical operators (including the vectorized, parallel
// PREDICT operator of §4.1), table statistics, versioning, and a query log
// for lazy provenance capture. The batch kernels are the one expression
// evaluator: SELECT, DML and the LevelUDF PREDICT path (compile.go) all run
// on them, and TestKernelInterpreterEquivalence pins their semantics against
// plain Go; docs/engine.md describes the batch-kernel ABI.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ColType enumerates storage types.
type ColType int

// Column types.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeString
	TypeBool
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "text"
	case TypeBool:
		return "bool"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ParseColType maps SQL type names to ColType.
func ParseColType(s string) (ColType, error) {
	switch strings.ToLower(s) {
	case "int":
		return TypeInt, nil
	case "float":
		return TypeFloat, nil
	case "text":
		return TypeString, nil
	case "bool":
		return TypeBool, nil
	}
	return 0, fmt.Errorf("engine: unknown column type %q", s)
}

// Value is a scalar runtime value.
type Value struct {
	Kind ColType
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Convenience constructors.
func IntValue(i int64) Value     { return Value{Kind: TypeInt, I: i} }
func FloatValue(f float64) Value { return Value{Kind: TypeFloat, F: f} }
func StringValue(s string) Value { return Value{Kind: TypeString, S: s} }
func BoolValue(b bool) Value     { return Value{Kind: TypeBool, B: b} }
func NullValue() Value           { return Value{Null: true} }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case TypeInt:
		return float64(v.I), nil
	case TypeFloat:
		return v.F, nil
	case TypeBool:
		if v.B {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("engine: %s is not numeric", v.Kind)
}

// truthy interprets the value as a boolean predicate result.
func (v Value) truthy() bool {
	if v.Null {
		return false
	}
	switch v.Kind {
	case TypeBool:
		return v.B
	case TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeString:
		return v.S != ""
	}
	return false
}

// Any converts to a plain Go value for result sets (nil for NULL).
func (v Value) Any() any {
	if v.Null {
		return nil
	}
	switch v.Kind {
	case TypeInt:
		return v.I
	case TypeFloat:
		return v.F
	case TypeString:
		return v.S
	case TypeBool:
		return v.B
	}
	return nil
}

// String renders the value for display.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values: -1, 0, +1. Numeric kinds compare numerically
// across int/float; NULL sorts first and equals only NULL.
func Compare(a, b Value) (int, error) {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0, nil
		case a.Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.Kind == TypeString && b.Kind == TypeString {
		return strings.Compare(a.S, b.S), nil
	}
	if a.Kind == TypeBool && b.Kind == TypeBool {
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("engine: cannot compare %s with %s", a.Kind, b.Kind)
}

// Data-dependent arithmetic errors; the kernels defer them per row.
var (
	errDivZero    = fmt.Errorf("engine: division by zero")
	errModuloZero = fmt.Errorf("engine: modulo by zero")
)

// arith applies a binary arithmetic operator to two values: NULL on either
// side yields NULL, int op int stays int (except "/"), everything else
// numeric runs in float64, and a zero divisor errors. The kernels' slow
// tier calls it, so it is the one definition of scalar arithmetic.
func arith(op string, a, b Value) (Value, error) {
	if a.Null || b.Null {
		return NullValue(), nil
	}
	if a.Kind == TypeInt && b.Kind == TypeInt && op != "/" {
		switch op {
		case "+":
			return IntValue(a.I + b.I), nil
		case "-":
			return IntValue(a.I - b.I), nil
		case "*":
			return IntValue(a.I * b.I), nil
		case "%":
			if b.I == 0 {
				return Value{}, errModuloZero
			}
			return IntValue(a.I % b.I), nil
		}
	}
	af, err := a.AsFloat()
	if err != nil {
		return Value{}, fmt.Errorf("engine: arithmetic on %s", a.Kind)
	}
	bf, err := b.AsFloat()
	if err != nil {
		return Value{}, fmt.Errorf("engine: arithmetic on %s", b.Kind)
	}
	switch op {
	case "+":
		return FloatValue(af + bf), nil
	case "-":
		return FloatValue(af - bf), nil
	case "*":
		return FloatValue(af * bf), nil
	case "/":
		if bf == 0 {
			return Value{}, errDivZero
		}
		return FloatValue(af / bf), nil
	case "%":
		return FloatValue(math.Mod(af, bf)), nil
	}
	return Value{}, fmt.Errorf("engine: unsupported arithmetic %q", op)
}

func isNumeric(t ColType) bool { return t == TypeInt || t == TypeFloat }

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune).
func likeMatch(s, pattern string) bool {
	return likeMatchBytes(s, pattern)
}

func likeMatchBytes(s, p string) bool {
	// Iterative two-pointer matching with backtracking on the last '%'.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			ss = si
			pi++
		case star >= 0:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Date arithmetic over ISO-8601 date strings ("YYYY-MM-DD"), sufficient for
// the TPC-H-style templates.

func parseDate(s string) (y, m, d int, err error) {
	if len(s) < 10 || s[4] != '-' || s[7] != '-' {
		return 0, 0, 0, fmt.Errorf("engine: bad date %q", s)
	}
	y, err1 := strconv.Atoi(s[0:4])
	m, err2 := strconv.Atoi(s[5:7])
	d, err3 := strconv.Atoi(s[8:10])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, 0, 0, fmt.Errorf("engine: bad date %q", s)
	}
	return y, m, d, nil
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	}
}

// AddInterval adds n units (day/month/year) to an ISO date string; negative
// n subtracts.
func AddInterval(date string, n int, unit string) (string, error) {
	y, m, d, err := parseDate(date)
	if err != nil {
		return "", err
	}
	switch strings.ToLower(unit) {
	case "year", "years":
		y += n
	case "month", "months":
		total := (y*12 + (m - 1)) + n
		y = total / 12
		m = total%12 + 1
		if m < 1 {
			m += 12
			y--
		}
		if d > daysInMonth(y, m) {
			d = daysInMonth(y, m)
		}
	case "day", "days":
		d += n
		for d > daysInMonth(y, m) {
			d -= daysInMonth(y, m)
			m++
			if m > 12 {
				m = 1
				y++
			}
		}
		for d < 1 {
			m--
			if m < 1 {
				m = 12
				y--
			}
			d += daysInMonth(y, m)
		}
	default:
		return "", fmt.Errorf("engine: unknown interval unit %q", unit)
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d), nil
}
