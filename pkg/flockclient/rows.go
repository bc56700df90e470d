package flockclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/wire"
)

// Rows iterates a query result database/sql-style, fetching pages from the
// server-side cursor on demand: the query executed once at Query time, and
// client memory is bounded by one page. Not safe for concurrent use.
//
//	for rows.Next() {
//	    if err := rows.Scan(&id, &score); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//	rows.Close()
type Rows struct {
	c      *Client
	ctx    context.Context
	cursor string
	cols   []string

	// body is the last fetch response and page its decoded typed columns;
	// both are reused across fetches, so a warm iteration allocates only
	// the string columns' bytes.
	body pageBody
	page wire.Page
	i    int // next unread row within page
	cur  int // the row Next advanced to, what Scan reads; -1 when there is none
	// done: the server finished (and already released) the cursor; the
	// buffered page may still hold rows to iterate. closed: the user (or a
	// drained iteration) is finished with the Rows.
	done   bool
	closed bool
	err    error
}

func newRows(c *Client, ctx context.Context, cursor string, cols []string) *Rows {
	return &Rows{c: c, ctx: ctx, cursor: cursor, cols: cols, cur: -1}
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row (database/sql semantics: Next moves, Scan
// reads the current row and may be called any number of times per Next),
// fetching the next page from the server when the buffered one is
// exhausted. It returns false at the end of the result or on error (check
// Err).
func (r *Rows) Next() bool {
	if r.err != nil || (r.closed && !r.done) {
		return false
	}
	for r.i >= r.page.N {
		r.cur = -1
		if r.done {
			r.closed = true // drained; the server already released the cursor
			return false
		}
		if !r.fetch() {
			return false
		}
	}
	r.cur = r.i
	r.i++
	return true
}

// fetch pulls one page; false means error (EOF is signaled through done and
// handled by Next's loop). Fetch is retryable by design (and WithRetry
// exploits it): the server rolls a failing or timed-out window back before
// reporting, so re-fetching resumes from the same position — no rows are
// skipped or duplicated.
func (r *Rows) fetch() bool {
	err := r.c.postIdem(r.ctx, "/v1/cursor/fetch", map[string]any{
		"session": r.c.sessionID(), "cursor": r.cursor, "max_rows": r.c.batchRows,
	}, &r.body)
	if err == nil {
		err = r.page.Decode(r.body.Bytes())
	}
	if err != nil {
		r.err = err
		return false
	}
	r.i = 0
	r.done = r.page.Done
	return true
}

// Scan copies the current row (the one Next advanced to) into dest
// pointers (*int64, *int, *float64, *string, *bool, *any). Numeric cells
// convert across int/float when the value fits. Scan does not advance: a
// failed Scan loses nothing, and repeated Scans reread the same row.
func (r *Rows) Scan(dest ...any) error {
	if r.err != nil {
		return r.err
	}
	if r.cur < 0 {
		return errors.New("flockclient: Scan called without a successful Next")
	}
	cols := r.page.Cols
	if len(dest) != len(cols) {
		return fmt.Errorf("flockclient: Scan got %d destinations for %d columns", len(dest), len(cols))
	}
	for i, d := range dest {
		if err := assign(d, &cols[i], r.cur); err != nil {
			return fmt.Errorf("flockclient: column %d (%s): %w", i, r.colName(i), err)
		}
	}
	return nil
}

func (r *Rows) colName(i int) string {
	if i < len(r.cols) {
		return r.cols[i]
	}
	return fmt.Sprintf("#%d", i)
}

// Err reports the first error encountered while iterating.
func (r *Rows) Err() error {
	if r.err != nil && IsCursorExpired(r.err) {
		return fmt.Errorf("cursor expired mid-iteration (TTL or server restart); re-run the query: %w", r.err)
	}
	return r.err
}

// Close releases the server-side cursor early. Iterators drained to
// completion are already released server-side; Close is then a no-op.
// Always safe to defer.
func (r *Rows) Close() error {
	if r.closed || r.done {
		r.closed = true
		return nil
	}
	r.closed = true
	err := r.c.postIdem(r.ctx, "/v1/cursor/close", map[string]any{
		"session": r.c.sessionID(), "cursor": r.cursor,
	}, nil)
	var ae *APIError
	if errors.As(err, &ae) && (ae.Status == http.StatusNotFound || ae.Status == http.StatusGone) {
		return nil // already gone (drained, expired, or session-closed)
	}
	return err
}

// assign copies row i of a page column into a destination pointer.
func assign(dest any, col *wire.Column, i int) error {
	switch d := dest.(type) {
	case *any:
		switch col.Type {
		case wire.Int64:
			*d = col.Ints[i]
		case wire.Float64:
			*d = col.Floats[i]
		case wire.String:
			*d = col.Strs[i]
		case wire.Bool:
			*d = col.Bools[i]
		}
		return nil
	case *int64:
		switch col.Type {
		case wire.Int64:
			*d = col.Ints[i]
			return nil
		case wire.Float64:
			if x := col.Floats[i]; x == float64(int64(x)) {
				*d = int64(x)
				return nil
			}
			return fmt.Errorf("float %v into *int64", col.Floats[i])
		}
	case *int:
		switch col.Type {
		case wire.Int64:
			*d = int(col.Ints[i])
			return nil
		case wire.Float64:
			if x := col.Floats[i]; x == float64(int64(x)) {
				*d = int(x)
				return nil
			}
			return fmt.Errorf("float %v into *int", col.Floats[i])
		}
	case *float64:
		switch col.Type {
		case wire.Float64:
			*d = col.Floats[i]
			return nil
		case wire.Int64:
			*d = float64(col.Ints[i])
			return nil
		}
	case *string:
		if col.Type == wire.String {
			*d = col.Strs[i]
			return nil
		}
	case *bool:
		if col.Type == wire.Bool {
			*d = col.Bools[i]
			return nil
		}
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return fmt.Errorf("cannot scan %s into %T", col.Type, dest)
}
