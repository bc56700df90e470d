package engine

import (
	"context"
	"fmt"

	"repro/internal/sql"
)

// DML execution. Writes are copy-on-write at column granularity so that
// concurrent readers holding a snapshot never observe partial updates, and
// every write bumps the table version (feeding provenance's temporal model).

// whereHits evaluates an optional WHERE clause as a batch kernel and
// returns the ids of the rows of rs it selects, ascending (every row when
// there is no clause).
func whereHits(where sql.Expr, rs *RowSet, env *compileEnv) ([]int32, error) {
	if where == nil {
		hits := make([]int32, rs.N)
		for i := range hits {
			hits[i] = int32(i)
		}
		return hits, nil
	}
	fn, err := compileVec(where, rs.Schema, env)
	if err != nil {
		return nil, err
	}
	v, err := fn(rs)
	if err != nil {
		return nil, err
	}
	if err := v.pendingErr(rs.N); err != nil {
		return nil, err
	}
	return appendTrue(nil, v, rs.N, 0), nil
}

func (db *DB) execCreate(s *sql.CreateTableStmt) (*Result, error) {
	schema := make(Schema, len(s.Columns))
	for i, c := range s.Columns {
		t, err := ParseColType(c.Type)
		if err != nil {
			return nil, err
		}
		schema[i] = ColMeta{Name: c.Name, Type: t}
	}
	if _, err := db.CreateTable(s.Table, schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// ctxCheck polls ctx without blocking (the DML loops' cancellation
// checkpoint; nil never cancels).
func ctxCheck(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func (db *DB) execInsertLevel(ctx context.Context, s *sql.InsertStmt, o ExecOptions) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Map statement columns onto table positions.
	target := make([]int, 0, len(schema))
	if len(s.Columns) == 0 {
		for i := range schema {
			target = append(target, i)
		}
	} else {
		for _, name := range s.Columns {
			idx, err := schema.Resolve("", name)
			if err != nil {
				return nil, err
			}
			target = append(target, idx)
		}
	}

	// Evaluate every row BEFORE applying any: cancellation and evaluation
	// errors can then only abort a statement that has written nothing —
	// a canceled INSERT never leaves a torn partial write behind.
	var buffered [][]Value

	if s.Query != nil {
		// INSERT ... SELECT: run the query, then append its rows (the batch
		// prediction write-back path: INSERT INTO scores SELECT id, PREDICT...).
		rs, err := db.execSelect(ctx, s.Query, o)
		if err != nil {
			return nil, err
		}
		if len(rs.Cols) != len(target) {
			return nil, fmt.Errorf("engine: INSERT ... SELECT produces %d columns for %d targets",
				len(rs.Cols), len(target))
		}
		buffered = make([][]Value, 0, rs.N)
		for r := 0; r < rs.N; r++ {
			if r%cancelBatchRows == 0 {
				if err := ctxCheck(ctx); err != nil {
					return nil, err
				}
			}
			vals := make([]Value, len(schema))
			assigned := make([]bool, len(schema))
			for i := range target {
				vals[target[i]] = rs.Cols[i].Value(r)
				assigned[target[i]] = true
			}
			for i := range vals {
				if !assigned[i] {
					vals[i] = NullValue()
				}
			}
			buffered = append(buffered, vals)
		}
	} else {
		env := db.compileEnv(ctx)
		oneRow := &RowSet{N: 1}
		buffered = make([][]Value, 0, len(s.Rows))
		for _, row := range s.Rows {
			if len(row) != len(target) {
				return nil, fmt.Errorf("engine: INSERT row has %d values for %d columns", len(row), len(target))
			}
			vals := make([]Value, len(schema))
			assigned := make([]bool, len(schema))
			for i, e := range row {
				fn, err := compileVec(e, nil, env)
				if err != nil {
					return nil, err
				}
				v, err := fn(oneRow)
				if err != nil {
					return nil, err
				}
				if err := v.pendingErr(1); err != nil {
					return nil, err
				}
				vals[target[i]] = v.valueAt(0)
				assigned[target[i]] = true
			}
			for i := range vals {
				if !assigned[i] {
					vals[i] = NullValue()
				}
			}
			buffered = append(buffered, vals)
		}
	}

	// Apply under the statement-level write lock so the batch append cannot
	// interleave with a concurrent UPDATE/DELETE rebuild of the same table.
	// The append is all-or-nothing and bumps the version once, so neither
	// cancellation nor a type error can commit a torn partial write; the
	// commit also lands one WAL record, making the acknowledged batch
	// crash-durable. The durability wait happens after the lock releases:
	// concurrent INSERTs on one table queue their frames back to back and
	// share a single group-commit fsync instead of paying one each.
	t.writeMu.Lock()
	if err := ctxCheck(ctx); err != nil {
		t.writeMu.Unlock()
		return nil, err
	}
	lsn, err := db.commitAppend(t, buffered)
	t.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := db.walWaitDurable(lsn); err != nil {
		return nil, err
	}
	return &Result{Affected: int64(len(buffered))}, nil
}

// execRebuild runs an UPDATE or DELETE of table: rebuild applies it under
// the statement lock and returns its WAL frame's LSN and the rows it hit.
// The ack waits for that frame's fsync (group commit) only after the lock
// is released, so concurrent writers batch.
func (db *DB) execRebuild(table string, rebuild func(*Table) (lsn, affected int64, err error)) (*Result, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	lsn, affected, err := rebuild(t)
	if err != nil {
		return nil, err
	}
	if err := db.walWaitDurable(lsn); err != nil {
		return nil, err
	}
	return &Result{Affected: affected}, nil
}

func (db *DB) execUpdateLocked(ctx context.Context, t *Table, s *sql.UpdateStmt) (int64, int64, error) {
	// Statement-level write exclusion: the snapshot -> rebuild -> replace
	// sequence must not interleave with another writer, or that writer's
	// rows would be silently dropped by ReplaceColumns.
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	cols, _, schema, n := t.snapshot()
	rs := &RowSet{Schema: schema, Cols: cols, N: n}
	env := db.compileEnv(ctx)

	hits, err := whereHits(s.Where, rs, env)
	if err != nil {
		return 0, 0, err
	}
	targets := make([]int, len(s.Sets))
	fns := make([]vecFunc, len(s.Sets))
	for i, sc := range s.Sets {
		if targets[i], err = schema.Resolve("", sc.Column); err != nil {
			return 0, 0, err
		}
		if fns[i], err = compileVec(sc.Value, schema, env); err != nil {
			return 0, 0, err
		}
	}

	// Copy-on-write: each SET is evaluated over the gathered hit rows of the
	// snapshot (so every SET reads pre-update values, and PREDICT or a row
	// error only ever sees a hit row) and scattered into a copy of its
	// column. Columns no SET names carry over as they are. With no hit,
	// nothing is evaluated.
	newCols := append([]Column(nil), cols...)
	if len(hits) > 0 {
		in := rs
		if len(hits) < n {
			in = rs.Gather(hits)
		}
		for i, fn := range fns {
			v, err := fn(in)
			if err != nil {
				return 0, 0, err
			}
			c := targets[i]
			vals, err := v.toColumn(schema[c].Type, in.N)
			if err != nil {
				return 0, 0, err
			}
			newCols[c] = newCols[c].scatter(hits, vals)
		}
	}
	if err := ctxCheck(ctx); err != nil {
		return 0, 0, err
	}
	lsn, err := db.commitReplace(t, newCols)
	if err != nil {
		return 0, 0, err
	}
	return lsn, int64(len(hits)), nil
}

func (db *DB) execDeleteLocked(ctx context.Context, t *Table, s *sql.DeleteStmt) (int64, int64, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	cols, _, schema, n := t.snapshot()
	rs := &RowSet{Schema: schema, Cols: cols, N: n}
	env := db.compileEnv(ctx)

	hits, err := whereHits(s.Where, rs, env)
	if err != nil {
		return 0, 0, err
	}
	keep := make([]int32, 0, n-len(hits))
	for r, h := 0, 0; r < n; r++ {
		if h < len(hits) && int(hits[h]) == r {
			h++
			continue
		}
		keep = append(keep, int32(r))
	}
	if err := ctxCheck(ctx); err != nil {
		return 0, 0, err
	}
	kept := rs.Gather(keep)
	lsn, err := db.commitReplace(t, kept.Cols)
	if err != nil {
		return 0, 0, err
	}
	return lsn, int64(len(hits)), nil
}
