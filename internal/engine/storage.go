package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/onnx"
)

// Column is one typed column of values; exactly one backing slice is used,
// selected by Type.
type Column struct {
	Type   ColType
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
}

// NewColumn returns an empty column of the given type.
func NewColumn(t ColType) Column { return Column{Type: t} }

// IntColumn wraps a slice as a column (no copy).
func IntColumn(vals []int64) Column { return Column{Type: TypeInt, Ints: vals} }

// FloatColumn wraps a slice as a column (no copy).
func FloatColumn(vals []float64) Column { return Column{Type: TypeFloat, Floats: vals} }

// StringColumn wraps a slice as a column (no copy).
func StringColumn(vals []string) Column { return Column{Type: TypeString, Strs: vals} }

// BoolColumn wraps a slice as a column (no copy).
func BoolColumn(vals []bool) Column { return Column{Type: TypeBool, Bools: vals} }

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.Type {
	case TypeInt:
		return len(c.Ints)
	case TypeFloat:
		return len(c.Floats)
	case TypeString:
		return len(c.Strs)
	case TypeBool:
		return len(c.Bools)
	}
	return 0
}

// Value returns row i as a Value.
func (c *Column) Value(i int) Value {
	switch c.Type {
	case TypeInt:
		return IntValue(c.Ints[i])
	case TypeFloat:
		return FloatValue(c.Floats[i])
	case TypeString:
		return StringValue(c.Strs[i])
	case TypeBool:
		return BoolValue(c.Bools[i])
	}
	return NullValue()
}

// Append adds a value, coercing numerically when needed.
func (c *Column) Append(v Value) error {
	if v.Null {
		// NULL is stored as the type's zero value: the engine has no null
		// bitmap, and INSERT and UPDATE accept NULL, so a stored NULL reads
		// back as 0, 0.0, '' or false (ROADMAP item 8 decides whether to
		// store NULLs or reject them).
		switch c.Type {
		case TypeInt:
			c.Ints = append(c.Ints, 0)
		case TypeFloat:
			c.Floats = append(c.Floats, 0)
		case TypeString:
			c.Strs = append(c.Strs, "")
		case TypeBool:
			c.Bools = append(c.Bools, false)
		}
		return nil
	}
	switch c.Type {
	case TypeInt:
		switch v.Kind {
		case TypeInt:
			c.Ints = append(c.Ints, v.I)
		case TypeFloat:
			c.Ints = append(c.Ints, int64(v.F))
		default:
			return fmt.Errorf("engine: cannot store %s into int column", v.Kind)
		}
	case TypeFloat:
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("engine: cannot store %s into float column", v.Kind)
		}
		c.Floats = append(c.Floats, f)
	case TypeString:
		if v.Kind != TypeString {
			return fmt.Errorf("engine: cannot store %s into text column", v.Kind)
		}
		c.Strs = append(c.Strs, v.S)
	case TypeBool:
		if v.Kind != TypeBool {
			return fmt.Errorf("engine: cannot store %s into bool column", v.Kind)
		}
		c.Bools = append(c.Bools, v.B)
	}
	return nil
}

// Gather returns a new column holding the selected rows.
func (c *Column) Gather(sel []int32) Column { return c.gatherPadded(sel, len(sel)) }

// gatherPadded returns an n-row column (n >= len(sel)) holding the selected
// rows, then n-len(sel) zero values.
func (c *Column) gatherPadded(sel []int32, n int) Column {
	out := Column{Type: c.Type}
	switch c.Type {
	case TypeInt:
		out.Ints = make([]int64, n)
		for i, s := range sel {
			out.Ints[i] = c.Ints[s]
		}
	case TypeFloat:
		out.Floats = make([]float64, n)
		for i, s := range sel {
			out.Floats[i] = c.Floats[s]
		}
	case TypeString:
		out.Strs = make([]string, n)
		for i, s := range sel {
			out.Strs[i] = c.Strs[s]
		}
	case TypeBool:
		out.Bools = make([]bool, n)
		for i, s := range sel {
			out.Bools[i] = c.Bools[s]
		}
	}
	return out
}

// scatter returns a copy of c whose row sel[i] holds src's row i (src has
// c's type). c itself is untouched, so earlier table versions sharing its
// backing array keep their values.
func (c *Column) scatter(sel []int32, src Column) Column {
	out := Column{Type: c.Type}
	switch c.Type {
	case TypeInt:
		out.Ints = slices.Clone(c.Ints)
		for i, r := range sel {
			out.Ints[r] = src.Ints[i]
		}
	case TypeFloat:
		out.Floats = slices.Clone(c.Floats)
		for i, r := range sel {
			out.Floats[r] = src.Floats[i]
		}
	case TypeString:
		out.Strs = slices.Clone(c.Strs)
		for i, r := range sel {
			out.Strs[r] = src.Strs[i]
		}
	case TypeBool:
		out.Bools = slices.Clone(c.Bools)
		for i, r := range sel {
			out.Bools[r] = src.Bools[i]
		}
	}
	return out
}

// ColMeta describes one schema column; Qual carries the table alias for
// disambiguation in joins ("" for derived columns).
type ColMeta struct {
	Qual string
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []ColMeta

// Resolve finds the column index for a (qualifier, name) reference. An
// empty qualifier matches any unique bare name.
func (s Schema) Resolve(qual, name string) (int, error) {
	found := -1
	for i, m := range s {
		if m.Name != name {
			continue
		}
		if qual != "" && m.Qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("engine: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("engine: unknown column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("engine: unknown column %q", name)
	}
	return found, nil
}

// Names returns the bare column names.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, m := range s {
		out[i] = m.Name
	}
	return out
}

// tableSnapshot is a retained historical version: column headers plus the
// row count at that version (columns are append-only or wholesale-replaced,
// so headers stay valid without copying data).
type tableSnapshot struct {
	version int64
	cols    []Column
	rows    int
}

// Table is a named, versioned, thread-safe columnar table. A bounded
// number of historical versions is retained for time-travel reads
// ("FROM t VERSION n") — the paper's data-versioning requirement.
type Table struct {
	Name string

	mu      sync.RWMutex
	schema  Schema
	cols    []Column
	version int64
	// zones holds the zone map of cols (zonemap.go): their row count,
	// per-morsel ranges of numeric columns, distinct values of text
	// columns. Replaced together with cols under mu, so a snapshot's zones
	// describe its columns; never persisted, logged or kept in history.
	zones zoneMap

	// writeMu serializes whole DML statements (not individual appends):
	// UPDATE/DELETE are snapshot -> rebuild -> replace, so without
	// statement-level exclusion a write committed between the snapshot and
	// the replace would be silently lost under concurrent sessions.
	writeMu sync.Mutex

	history []tableSnapshot
	retain  int
}

// DefaultRetention is how many historical versions a table keeps.
const DefaultRetention = 8

// NewTable creates an empty table with the given schema (qualifiers are
// ignored and reset to empty).
func NewTable(name string, schema Schema) *Table {
	sc := make(Schema, len(schema))
	for i, m := range schema {
		sc[i] = ColMeta{Name: m.Name, Type: m.Type}
	}
	cols := make([]Column, len(sc))
	for i := range cols {
		cols[i] = NewColumn(sc[i].Type)
	}
	return &Table{Name: name, schema: sc, cols: cols, zones: extendZones(cols, zoneMap{}),
		retain: DefaultRetention}
}

// SetRetention bounds the historical versions kept for time travel.
func (t *Table) SetRetention(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retain = n
	t.trimHistoryLocked()
}

// recordVersionLocked snapshots the pre-write state (caller holds the
// write lock and has not mutated yet).
func (t *Table) recordVersionLocked() {
	t.history = append(t.history, tableSnapshot{version: t.version, cols: t.currentLocked(), rows: t.zones.rows})
	t.trimHistoryLocked()
}

// currentLocked returns the current column headers fixed at the current
// row count, so appends past it stay invisible. Caller holds t.mu.
func (t *Table) currentLocked() []Column {
	cols := make([]Column, len(t.cols))
	for i := range t.cols {
		cols[i] = truncateCol(t.cols[i], t.zones.rows)
	}
	return cols
}

func (t *Table) trimHistoryLocked() {
	if t.retain >= 0 && len(t.history) > t.retain {
		t.history = t.history[len(t.history)-t.retain:]
	}
}

// SnapshotAt returns the table state as of the given version. The current
// version is always available; older versions only within the retention
// window.
func (t *Table) SnapshotAt(version int64) ([]Column, Schema, int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if version == t.version {
		return t.currentLocked(), t.schema, t.zones.rows, nil
	}
	for i := len(t.history) - 1; i >= 0; i-- {
		if t.history[i].version == version {
			return t.history[i].cols, t.schema, t.history[i].rows, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("engine: table %s version %d not retained (window %d, current %d)",
		t.Name, version, t.retain, t.version)
}

// RetainedVersions lists the historical versions available for time
// travel, oldest first, excluding the current version.
func (t *Table) RetainedVersions() []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int64, len(t.history))
	for i, h := range t.history {
		out[i] = h.version
	}
	return out
}

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append(Schema(nil), t.schema...)
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.zones.rows
}

// Version returns the table version (bumped on every write).
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// snapshot returns the current columns, and their zones, for reading.
// Readers share the backing arrays; writers always append or replace whole
// columns under the write lock, and version-bump, so a snapshot stays
// internally consistent.
func (t *Table) snapshot() ([]Column, zoneMap, Schema, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.currentLocked(), t.zones, t.schema, t.zones.rows
}

// truncateCol fixes the column length to n so concurrent appends past the
// snapshot are invisible.
func truncateCol(c Column, n int) Column {
	switch c.Type {
	case TypeInt:
		c.Ints = c.Ints[:n]
	case TypeFloat:
		c.Floats = c.Floats[:n]
	case TypeString:
		c.Strs = c.Strs[:n]
	case TypeBool:
		c.Bools = c.Bools[:n]
	}
	return c
}

// appendRows installs a batch of rows as ONE unlogged write: either every
// row lands or none does, the table version bumps once, and time travel
// sees a single new version. Only WAL replay calls it; every other writer
// goes through DB.AppendRows, which logs the rows first.
//
// Rows are appended to copies of the column headers and swapped in only on
// success; a mid-batch error therefore cannot leave ragged columns or a
// torn prefix. (Appends may land in shared backing arrays beyond the
// committed length, which snapshots never observe.)
func (t *Table) appendRows(rows [][]Value) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if len(rows) == 0 {
		return nil
	}
	newCols, zones, err := t.appendBuild(rows)
	if err != nil {
		return err
	}
	t.install(newCols, zones)
	return nil
}

// appendBuild validates rows and builds the appended column set, and its
// zones, without installing them — the build/install split lets the
// durable write path put the WAL append between validation and the
// install, so a statement that fails either step mutates nothing. The
// zones keep the current entries and add only the morsels this append
// completes. Caller holds t.writeMu.
func (t *Table) appendBuild(rows [][]Value) ([]Column, zoneMap, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	newCols := make([]Column, len(t.cols))
	copy(newCols, t.cols)
	for _, vals := range rows {
		if len(vals) != len(newCols) {
			return nil, zoneMap{}, fmt.Errorf("engine: table %s has %d columns, got %d values", t.Name, len(newCols), len(vals))
		}
		for i := range vals {
			if err := newCols[i].Append(vals[i]); err != nil {
				return nil, zoneMap{}, fmt.Errorf("engine: table %s column %s: %w", t.Name, t.schema[i].Name, err)
			}
		}
	}
	return newCols, extendZones(newCols, t.zones), nil
}

// install commits pre-built columns and their zones as one write: history
// records the pre-write state and the version bumps once. Caller holds
// t.writeMu.
func (t *Table) install(cols []Column, zones zoneMap) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordVersionLocked() // snapshots t.cols, still the pre-write state
	t.cols = cols
	t.zones = zones
	t.version++
}

// replaceColumns swaps in fully-built columns as one unlogged write. Only
// WAL replay calls it; every other writer goes through DB.ReplaceColumns.
func (t *Table) replaceColumns(cols []Column) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := t.validateReplace(cols); err != nil {
		return err
	}
	t.install(cols, extendZones(cols, zoneMap{}))
	return nil
}

// validateReplace checks a bulk-load column set against the schema.
func (t *Table) validateReplace(cols []Column) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(cols) != len(t.schema) {
		return fmt.Errorf("engine: table %s has %d columns, got %d", t.Name, len(t.schema), len(cols))
	}
	n := -1
	for i, c := range cols {
		if c.Type != t.schema[i].Type {
			return fmt.Errorf("engine: table %s column %s: type mismatch", t.Name, t.schema[i].Name)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return fmt.Errorf("engine: table %s: ragged bulk load", t.Name)
		}
	}
	return nil
}

// Stats folds the current version's statistics from its zone map
// (snapshotStats), the ones a PREDICT over a scan of it is compressed with.
func (t *Table) Stats() onnx.Stats {
	cols, zones, schema, _ := t.snapshot()
	return snapshotStats(schema, cols, zones)
}
