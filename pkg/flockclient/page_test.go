package flockclient

// The cursor path reads binary columnar pages (internal/wire); row-JSON
// stays on the server as the curl surface and is the reference here. These
// tests compare the two routes cell by cell through a real server, pin what
// Scan does with a typed column by value and by allocation count, and pin
// decodeCell — what is left of JSON decoding, on the Exec path — against
// the decoder it replaced.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
)

// rawPost posts a JSON body with no Accept header — the curl surface — and
// returns the status and the body.
func rawPost(t *testing.T, url string, body map[string]any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// rowJSONRows drains a cursor over the row-JSON route, page by page.
func rowJSONRows(t *testing.T, url, session, sql, level string, pageRows int) [][]any {
	t.Helper()
	open := map[string]any{"session": session, "sql": sql, "cursor": true}
	if level != "" {
		open["level"] = level
	}
	status, raw := rawPost(t, url+"/v1/query", open)
	var opened struct {
		Cursor string `json:"cursor"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &opened) != nil || opened.Cursor == "" {
		t.Fatalf("row-JSON cursor open: %d %s", status, raw)
	}
	var all [][]any
	for {
		status, raw := rawPost(t, url+"/v1/cursor/fetch", map[string]any{
			"session": session, "cursor": opened.Cursor, "max_rows": pageRows,
		})
		var page struct {
			Rows [][]json.RawMessage `json:"rows"`
			Done bool                `json:"done"`
		}
		if status != http.StatusOK || json.Unmarshal(raw, &page) != nil {
			t.Fatalf("row-JSON fetch: %d %s", status, raw)
		}
		rows, err := decodeRows(page.Rows)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
		if page.Done {
			return all
		}
	}
}

// sameCell compares a cell scanned from a page into *any with the row-JSON
// cell at the same position. Row-JSON writes an integral float as "42", so
// a float column's reference may arrive as int64; finite floats must agree
// to the bit.
func sameCell(page, ref any) bool {
	if f, ok := page.(float64); ok {
		switch r := ref.(type) {
		case float64:
			return math.Float64bits(f) == math.Float64bits(r)
		case int64:
			return math.Float64bits(f) == math.Float64bits(float64(r))
		}
		return false
	}
	return page == ref
}

func TestPagesMatchRowJSON(t *testing.T) {
	url := testServer(t, 9000, server.Config{})
	ctx := context.Background()
	queries := []struct {
		sql      string
		small    bool // few enough rows to fetch one per page
		wantRows int  // -1: whatever the reference returns, but more than two engine batches
	}{
		{"SELECT id, age, income, tenure, region, income > 50000.0 AS rich FROM customers WHERE tenure > 0.5", false, -1},
		{"SELECT id, id * 1.0 AS whole, region, id > 5 AS big FROM customers WHERE id <= 10", true, 10},
		// max, not avg: the two routes are two executions, and the last bit
		// of a parallel float sum depends on the order partials merge in.
		{"SELECT region, count(*) AS n, max(income) AS top FROM customers GROUP BY region ORDER BY region", true, 6},
		{"SELECT id, region FROM customers WHERE id < 0", true, 0},
	}
	for _, level := range []string{"", "udf"} {
		for _, pageRows := range []int{1, 7, 500, 4096} {
			c, err := Dial(ctx, url, "root", WithBatchRows(pageRows), WithLevel(level))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if pageRows == 1 && !q.small {
					continue
				}
				name := fmt.Sprintf("level=%q pageRows=%d %s", level, pageRows, q.sql)
				want := rowJSONRows(t, url, c.Session(), q.sql, level, pageRows)
				if q.wantRows >= 0 && len(want) != q.wantRows {
					t.Fatalf("%s: reference returned %d rows, want %d", name, len(want), q.wantRows)
				}
				if q.wantRows < 0 && len(want) <= 2*4096 {
					t.Fatalf("%s: reference returned %d rows; the case must span more than two engine batches", name, len(want))
				}
				rows, err := c.Query(ctx, q.sql)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := make([]any, len(rows.Columns()))
				dest := make([]any, len(got))
				for i := range got {
					dest[i] = &got[i]
				}
				n := 0
				for rows.Next() {
					if err := rows.Scan(dest...); err != nil {
						t.Fatalf("%s: row %d: %v", name, n, err)
					}
					if n >= len(want) {
						t.Fatalf("%s: more than the reference's %d rows", name, len(want))
					}
					for i := range got {
						if !sameCell(got[i], want[n][i]) {
							t.Fatalf("%s: row %d column %d: page %#v (%T), row-JSON %#v (%T)", name, n, i, got[i], got[i], want[n][i], want[n][i])
						}
					}
					n++
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n != len(want) {
					t.Fatalf("%s: %d rows from pages, %d from row-JSON", name, n, len(want))
				}
			}
			if err := c.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A non-finite float is a value row-JSON cannot express: Exec and the
// row-JSON fetch answer with an execution error that says so (they used to
// answer 200 with an empty body, a bare EOF in the SDK), and the page route
// delivers the value bit-exactly.
func TestNonFiniteFloats(t *testing.T) {
	url := testServer(t, 500, server.Config{})
	ctx := context.Background()
	c, err := Dial(ctx, url, "root")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx)

	const infSQL = "SELECT income * 1e308 * 1e308 AS v FROM customers WHERE id = 1"
	cases := []struct {
		sql  string
		bits uint64
	}{
		{infSQL, math.Float64bits(math.Inf(1))},
		{"SELECT (0.0 - income) * 1e308 * 1e308 AS v FROM customers WHERE id = 1", math.Float64bits(math.Inf(-1))},
		{"SELECT 0.0 * (0.0 - income) AS v FROM customers WHERE id = 1", math.Float64bits(math.Copysign(0, -1))},
	}
	for _, tc := range cases {
		rows, err := c.Query(ctx, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var f float64
		if !rows.Next() {
			t.Fatalf("%s: no row: %v", tc.sql, rows.Err())
		}
		if err := rows.Scan(&f); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(f) != tc.bits {
			t.Fatalf("%s: scanned %v (bits %#x), want bits %#x", tc.sql, f, math.Float64bits(f), tc.bits)
		}
		rows.Close()
	}
	rows, err := c.Query(ctx, "SELECT income * 1e308 * 1e308 - income * 1e308 * 1e308 AS v FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	var nan any
	if !rows.Next() || rows.Scan(&nan) != nil {
		t.Fatalf("NaN row: %v", rows.Err())
	}
	if f, ok := nan.(float64); !ok || !math.IsNaN(f) {
		t.Fatalf("scanned %#v, want NaN", nan)
	}
	rows.Close()

	wantRefusal := func(what string, err error) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, "non-finite float; JSON cannot carry it") {
			t.Fatalf("%s: err = %v, want a 400 naming the non-finite float", what, err)
		}
	}
	_, err = c.Exec(ctx, infSQL)
	wantRefusal("Client.Exec", err)
	st, err := c.Prepare(ctx, infSQL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Exec(ctx)
	wantRefusal("Stmt.Exec", err)
}

// rowsOver hands a decoded page to a Rows with no server behind it.
func rowsOver(t testing.TB, cols []string, types []wire.Type, fill func(e *wire.Encoder)) *Rows {
	t.Helper()
	var e wire.Encoder
	e.Begin(types)
	fill(&e)
	frame, err := e.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	r := newRows(nil, context.Background(), "", cols)
	if err := r.page.Decode(frame); err != nil {
		t.Fatal(err)
	}
	r.done = true
	return r
}

func TestScanFromTypedColumns(t *testing.T) {
	r := rowsOver(t, []string{"i", "f", "s", "b"},
		[]wire.Type{wire.Int64, wire.Float64, wire.String, wire.Bool},
		func(e *wire.Encoder) {
			e.Rows(2)
			e.Ints([]int64{1<<53 + 1, -4})
			e.Floats([]float64{42, 2.5})
			e.Strings([]string{"eu", ""})
			e.Bools([]bool{true, false})
		})
	var (
		i64 int64
		i   int
		f   float64
		s   string
		b   bool
		a   [4]any
	)
	if err := r.Scan(&i64, &f, &s, &b); err == nil || !strings.Contains(err.Error(), "without a successful Next") {
		t.Fatalf("Scan before Next: %v", err)
	}
	if !r.Next() {
		t.Fatal(r.Err())
	}
	// Scan reads the current row and does not advance: twice gives the same.
	for range 2 {
		if err := r.Scan(&i64, &f, &s, &b); err != nil {
			t.Fatal(err)
		}
		if i64 != 1<<53+1 || f != 42 || s != "eu" || !b {
			t.Fatalf("row 0 = (%d, %v, %q, %v)", i64, f, s, b)
		}
	}
	// Numeric cells convert across int/float when the value fits.
	if err := r.Scan(&f, &i64, &s, &b); err != nil {
		t.Fatal(err)
	}
	if f != float64(1<<53+1) || i64 != 42 {
		t.Fatalf("cross-scan = (%v, %d)", f, i64)
	}
	if err := r.Scan(&i, &i, &s, &b); err != nil || i != 42 {
		t.Fatalf("*int scan = %d, %v", i, err)
	}
	// *any receives the column's Go type — float64 for a float column even
	// when the value is integral.
	if err := r.Scan(&a[0], &a[1], &a[2], &a[3]); err != nil {
		t.Fatal(err)
	}
	if a != [4]any{int64(1<<53 + 1), float64(42), "eu", true} {
		t.Fatalf("*any scan = %#v", a)
	}
	for _, tc := range []struct {
		dest []any
		want string
	}{
		{[]any{&i64, &f, &s}, "3 destinations for 4 columns"},
		{[]any{&s, &f, &s, &b}, "column 0 (i): cannot scan int64 into *string"},
		{[]any{&i64, &b, &s, &b}, "column 1 (f): cannot scan float64 into *bool"},
		{[]any{&i64, &f, &f, &b}, "column 2 (s): cannot scan string into *float64"},
		{[]any{&i64, &f, &s, &i}, "column 3 (b): cannot scan bool into *int"},
		{[]any{i64, &f, &s, &b}, "unsupported Scan destination int64"},
	} {
		if err := r.Scan(tc.dest...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Scan error = %v, want one naming %q", err, tc.want)
		}
	}
	if !r.Next() {
		t.Fatal(r.Err())
	}
	if err := r.Scan(&i64, &i64, &s, &b); err == nil || !strings.Contains(err.Error(), "float 2.5 into *int64") {
		t.Fatalf("fractional float into *int64: %v", err)
	}
	if err := r.Scan(&i64, &f, &s, &b); err != nil || i64 != -4 || f != 2.5 || s != "" || b {
		t.Fatalf("row 1 = (%d, %v, %q, %v), %v", i64, f, s, b, err)
	}
	if r.Next() {
		t.Fatal("Next past the last row of a done page")
	}
	if err := r.Scan(&i64, &f, &s, &b); err == nil {
		t.Fatal("Scan after the iteration ended must fail")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close of a drained Rows = %v, want a no-op", err)
	}
}

func TestScanAllocatesNothing(t *testing.T) {
	const n = 500
	ids, nums, strs := make([]int64, n), make([]float64, n), make([]string, n)
	for i := range ids {
		ids[i], nums[i], strs[i] = int64(i), float64(i)+0.25, fmt.Sprint("region-", i%7)
	}
	r := rowsOver(t, []string{"id", "age", "income", "tenure", "region", "notes"},
		[]wire.Type{wire.Int64, wire.Float64, wire.Float64, wire.Float64, wire.String, wire.String},
		func(e *wire.Encoder) {
			e.Rows(n)
			e.Ints(ids)
			e.Floats(nums)
			e.Floats(nums)
			e.Floats(nums)
			e.Strings(strs)
			e.Strings(strs)
		})
	var (
		id                  int64
		age, income, tenure float64
		region, notes       string
	)
	allocs := testing.AllocsPerRun(n-1, func() {
		if !r.Next() {
			t.Fatal("ran out of rows")
		}
		if err := r.Scan(&id, &age, &income, &tenure, &region, &notes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next + Scan of six typed destinations allocates %v objects per row, want 0", allocs)
	}
	if id == 0 || age != float64(id)+0.25 || region != strs[id] {
		t.Fatalf("last row scanned = (%d, %v, %q)", id, age, region)
	}
}

// SDK and server ship from one commit; a server that answers a fetch with
// anything but a page is a build mismatch, and the error says which format
// the SDK wanted.
func TestFetchRejectsNonPageResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/sessions":
			io.WriteString(w, `{"session":"s1"}`)
		case "/v1/query":
			io.WriteString(w, `{"cursor":"c1","columns":["id"]}`)
		case "/v1/cursor/fetch":
			io.WriteString(w, `{"columns":["id"],"rows":[[1]],"done":true}`)
		}
	}))
	defer ts.Close()
	ctx := context.Background()
	c, err := Dial(ctx, ts.URL, "root")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next succeeded on a row-JSON page")
	}
	err = rows.Err()
	if err == nil || !strings.Contains(err.Error(), wire.ContentType) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("err = %v, want one naming %s and version 1", err, wire.ContentType)
	}
}

// referenceDecodeCell is decodeCell as it was before this table existed:
// one json.Decoder and one bytes.Reader per cell. It stays as the reference
// the strconv-based decoder must agree with, value and type.
func referenceDecodeCell(cell json.RawMessage) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(cell))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if num, ok := v.(json.Number); ok {
		if i, err := num.Int64(); err == nil && !strings.ContainsAny(num.String(), ".eE") {
			return i, nil
		}
		f, err := num.Float64()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	return v, nil
}

func TestDecodeCell(t *testing.T) {
	cases := []struct {
		cell string
		want any // nil with err: the cell must be refused
		err  bool
	}{
		{"0", int64(0), false},
		{"-0", int64(0), false},
		{"42", int64(42), false},
		{"-17", int64(-17), false},
		{"9007199254740993", int64(1<<53 + 1), false}, // exactly, not via float64
		{"9223372036854775807", int64(math.MaxInt64), false},
		{"-9223372036854775808", int64(math.MinInt64), false},
		{"9223372036854775808", float64(1 << 63), false}, // out of int64 range
		{"-9223372036854775809", -float64(1 << 63), false},
		{"123456789012345678901234567890", 1.2345678901234568e29, false},
		{"1e3", float64(1000), false},
		{"1E3", float64(1000), false},
		{"1.0", float64(1), false},
		{"-0.0", math.Copysign(0, -1), false},
		{"2.5", 2.5, false},
		{"5e-324", math.SmallestNonzeroFloat64, false},
		{"1.7976931348623157e308", math.MaxFloat64, false},
		{"0.1", 0.1, false},
		{`""`, "", false},
		{`"eu-south"`, "eu-south", false},
		{`"quote\" slash\\ tab\t nl\n"`, "quote\" slash\\ tab\t nl\n", false},
		{`"é雪 🙂"`, "é雪 🙂", false},
		{`"\u0000 \u00e9"`, "\x00 é", false},
		{`"<b>"`, "<b>", false}, // the server's encoder escapes HTML
		{`"naïve 雪"`, "naïve 雪", false},
		{`"\ud800"`, "\ufffd", false}, // a lone surrogate
		{"true", true, false},
		{"false", false, false},
		{"null", nil, false},
		{" 7 ", int64(7), false},

		{"", nil, true},
		{"1e400", nil, true},
		{"01", nil, true},
		{"1.", nil, true},
		{"+1", nil, true},
		{"-", nil, true},
		{"0x10", nil, true},
		{"1_000", nil, true},
		{"-Inf", nil, true},
		{"NaN", nil, true},
		{"tru", nil, true},
		{"True", nil, true},
		{"nullx", nil, true},
		{`"open`, nil, true},
		{`"bad \x escape"`, nil, true},
	}
	for _, tc := range cases {
		got, err := decodeCell(json.RawMessage(tc.cell))
		if (err != nil) != tc.err {
			t.Errorf("%q: err = %v, want error: %v", tc.cell, err, tc.err)
			continue
		}
		if !json.Valid([]byte(tc.cell)) {
			// A cell is a json.RawMessage the response decoder cut out, so
			// it is one valid value; the reference, a stream decoder, read
			// the first value of "01" or "nullx" and left the rest. Only the
			// strict answer is pinned for such bytes.
			if err == nil {
				t.Errorf("%q is not valid JSON but decoded to %#v", tc.cell, got)
			}
			continue
		}
		ref, refErr := referenceDecodeCell(json.RawMessage(tc.cell))
		if (refErr != nil) != tc.err {
			t.Errorf("%q: reference err = %v, want error: %v", tc.cell, refErr, tc.err)
		}
		if tc.err {
			continue
		}
		for name, v := range map[string]any{"decodeCell": got, "the reference": ref} {
			if fmt.Sprintf("%T", v) != fmt.Sprintf("%T", tc.want) {
				t.Errorf("%q: %s returned %T, want %T", tc.cell, name, v, tc.want)
			} else if f, ok := v.(float64); ok {
				if math.Float64bits(f) != math.Float64bits(tc.want.(float64)) {
					t.Errorf("%q: %s returned %v, want %v", tc.cell, name, f, tc.want)
				}
			} else if v != tc.want {
				t.Errorf("%q: %s returned %#v, want %#v", tc.cell, name, v, tc.want)
			}
		}
	}
}

func TestDecodeCellAllocations(t *testing.T) {
	for _, tc := range []struct {
		cell string
		max  float64
	}{
		{"12345", 1},            // the boxed int64
		{"52.5632623011097", 1}, // the boxed float64
		{`"eu-south"`, 4},       // json.Unmarshal's decode state, the string, its box
		{"true", 0}, {"null", 0},
	} {
		cell := json.RawMessage(tc.cell)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := decodeCell(cell); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("decodeCell(%s) allocates %v objects, want at most %v", tc.cell, allocs, tc.max)
		}
	}
}
