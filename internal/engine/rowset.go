package engine

import (
	"fmt"
	"slices"
)

// RowSet is a materialized intermediate result: a schema plus columns of
// equal length. Columns may alias table storage (scans are zero-copy).
type RowSet struct {
	Schema Schema
	Cols   []Column
	N      int
}

// NewRowSet builds a rowset and validates column lengths.
func NewRowSet(schema Schema, cols []Column) (*RowSet, error) {
	if len(schema) != len(cols) {
		return nil, fmt.Errorf("engine: rowset schema/columns mismatch: %d vs %d", len(schema), len(cols))
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for i := range cols {
		if cols[i].Len() != n {
			return nil, fmt.Errorf("engine: ragged rowset at column %s", schema[i].Name)
		}
	}
	return &RowSet{Schema: schema, Cols: cols, N: n}, nil
}

// Gather returns a rowset holding only the selected rows.
func (rs *RowSet) Gather(sel []int32) *RowSet {
	out := &RowSet{Schema: rs.Schema, N: len(sel)}
	out.Cols = make([]Column, len(rs.Cols))
	for i := range rs.Cols {
		out.Cols[i] = rs.Cols[i].Gather(sel)
	}
	return out
}

// pick returns a zero-copy rowset over the columns of rs named in cols, in
// rs's own order; nil keeps every column (opt.Scan.Cols). Names rs does not
// have are ignored: the planner matches by bare name, conservatively.
func (rs *RowSet) pick(cols []string) *RowSet {
	if cols == nil {
		return rs
	}
	out := &RowSet{N: rs.N, Schema: make(Schema, 0, len(cols)), Cols: make([]Column, 0, len(cols))}
	for i, m := range rs.Schema {
		if slices.Contains(cols, m.Name) {
			out.Schema = append(out.Schema, m)
			out.Cols = append(out.Cols, rs.Cols[i])
		}
	}
	return out
}

// Slice returns a zero-copy rowset over rows [lo, hi).
func (rs *RowSet) Slice(lo, hi int) *RowSet {
	out := &RowSet{Schema: rs.Schema, N: hi - lo}
	out.Cols = make([]Column, len(rs.Cols))
	for i := range rs.Cols {
		c := rs.Cols[i]
		switch c.Type {
		case TypeInt:
			c.Ints = c.Ints[lo:hi]
		case TypeFloat:
			c.Floats = c.Floats[lo:hi]
		case TypeString:
			c.Strs = c.Strs[lo:hi]
		case TypeBool:
			c.Bools = c.Bools[lo:hi]
		}
		out.Cols[i] = c
	}
	return out
}

// Row returns row i as values (for small results and tests).
func (rs *RowSet) Row(i int) []Value {
	out := make([]Value, len(rs.Cols))
	for c := range rs.Cols {
		out[c] = rs.Cols[c].Value(i)
	}
	return out
}

// Result is a statement's answer: a SELECT's rows, or, for DML and DDL, a
// set with no columns and no rows beside the affected-row count. Column
// names come from Schema.
type Result struct {
	RowSet
	Affected int64
}
