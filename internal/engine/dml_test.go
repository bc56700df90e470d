package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/opt"
)

// TestDMLSemantics pins what INSERT VALUES and UPDATE do with the values
// they compute: which rows an UPDATE evaluates, which values each SET
// reads, how a value is coerced into its column, and that a failing
// statement writes nothing.
func TestDMLSemantics(t *testing.T) {
	cases := []struct {
		name  string
		stmts []string // run in order; all but the last must succeed
		// affected is the last statement's Affected count; wantErr means it
		// must fail instead.
		affected int64
		wantErr  bool
		errNames string // when set, the error must contain it
		query    string
		want     [][]any
	}{
		{
			name: "update matching nothing evaluates no SET",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true)",
				"UPDATE t SET a = 'x' WHERE a > 100",
			},
			affected: 0,
			query:    "SELECT a FROM t",
			want:     [][]any{{int64(1)}},
		},
		{
			name: "every SET reads pre-update values",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true), (2, 20, 2.5, 'y', false)",
				"UPDATE t SET a = b, b = a WHERE a = 2",
			},
			affected: 1,
			query:    "SELECT a, b FROM t ORDER BY a",
			want:     [][]any{{int64(1), int64(10)}, {int64(20), int64(2)}},
		},
		{
			name: "a float SET into an int column truncates",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true), (2, 20, 2.5, 'y', false)",
				"UPDATE t SET b = f * -3.0",
			},
			affected: 2,
			query:    "SELECT b FROM t ORDER BY a",
			want:     [][]any{{int64(-4)}, {int64(-7)}},
		},
		{
			name: "SET to NULL stores the zero value",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true), (2, 20, 2.5, 'y', true)",
				"UPDATE t SET b = NULL, f = NULL, s = NULL, ok = NULL WHERE a = 1",
			},
			affected: 1,
			query:    "SELECT a, b, f, s, ok FROM t ORDER BY a",
			want: [][]any{
				{int64(1), int64(0), 0.0, "", false},
				{int64(2), int64(20), 2.5, "y", true},
			},
		},
		{
			name: "a CASE with int and float branches inserts a float",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, CASE WHEN 1 = 2 THEN 1 ELSE 2.5 END, 'x', true)",
			},
			affected: 1,
			query:    "SELECT f FROM t",
			want:     [][]any{{2.5}},
		},
		{
			name: "a CASE with int and float branches sets a float",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true), (2, 20, 2.5, 'y', false)",
				"UPDATE t SET f = CASE WHEN a = 2 THEN 1 ELSE 0.5 END",
			},
			affected: 2,
			query:    "SELECT f FROM t ORDER BY a",
			want:     [][]any{{0.5}, {1.0}},
		},
		{
			name: "a CASE mixing text and a number does not compile",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, CASE WHEN 1 = 1 THEN 'y' ELSE 1 END, true)",
			},
			wantErr:  true,
			errNames: "CASE branches mix text and int",
			query:    "SELECT count(*) AS n FROM t",
			want:     [][]any{{int64(0)}},
		},
		{
			name: "a CASE mixing bool and a number does not compile",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true)",
				"UPDATE t SET ok = CASE WHEN a = 1 THEN true ELSE 0.5 END",
			},
			wantErr:  true,
			errNames: "CASE branches mix bool and float",
			query:    "SELECT ok FROM t",
			want:     [][]any{{true}},
		},
		{
			name: "insert with a failing row writes nothing",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true)",
				"INSERT INTO t VALUES (2, 20, 2.5, 'y', true), (1/0, 30, 3.5, 'z', true)",
			},
			wantErr: true,
			query:   "SELECT count(*) AS n FROM t",
			want:    [][]any{{int64(1)}},
		},
		{
			name: "an update error on a hit row writes nothing",
			stmts: []string{
				"INSERT INTO t VALUES (1, 10, 1.5, 'x', true), (2, 0, 2.5, 'y', true)",
				"UPDATE t SET f = 1.0 / b WHERE a = 2",
			},
			wantErr: true,
			query:   "SELECT f FROM t ORDER BY a",
			want:    [][]any{{1.5}, {2.5}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			if _, err := db.Exec("CREATE TABLE t (a int, b int, f float, s text, ok bool)"); err != nil {
				t.Fatal(err)
			}
			last := len(c.stmts) - 1
			for _, q := range c.stmts[:last] {
				if _, err := db.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			res, err := db.Exec(c.stmts[last])
			switch {
			case c.wantErr && err == nil:
				t.Fatalf("%s: want an error", c.stmts[last])
			case c.wantErr && !strings.Contains(err.Error(), c.errNames):
				t.Fatalf("%s: error %v, want one naming %q", c.stmts[last], err, c.errNames)
			case !c.wantErr && err != nil:
				t.Fatalf("%s: %v", c.stmts[last], err)
			case !c.wantErr && res.Affected != c.affected:
				t.Fatalf("%s: affected %d, want %d", c.stmts[last], res.Affected, c.affected)
			}
			got, err := db.Exec(c.query)
			if err != nil {
				t.Fatal(err)
			}
			rows := boxed(got)
			if len(rows) != len(c.want) {
				t.Fatalf("%s: rows %v, want %v", c.query, rows, c.want)
			}
			for i := range c.want {
				for j := range c.want[i] {
					if rows[i][j] != c.want[i][j] {
						t.Fatalf("%s: rows %v, want %v", c.query, rows, c.want)
					}
				}
			}
		})
	}
	t.Run("PREDICT stores the bits SELECT computes", checkDMLPredictMatchesSelect)
}

// checkDMLPredictMatchesSelect: PREDICT in INSERT VALUES and in an UPDATE's
// SET (the row-mode, one-call-per-row path) stores the same float64 bits
// as SELECT PREDICT at LevelFull.
func checkDMLPredictMatchesSelect(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 200)
	ref, err := execLevel(db, `SELECT id, age, income, region, PREDICT(churn, age, income, region) AS p
		FROM customers WHERE id < 20 ORDER BY id`, opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE scored (id int, age float, income float, region text, p float)"); err != nil {
		t.Fatal(err)
	}
	// Half the rows are scored by INSERT VALUES, half by UPDATE.
	for _, row := range boxed(ref) {
		id := row[0].(int64)
		feats := fmt.Sprintf("%s, %s, '%s'", strconv.FormatFloat(row[1].(float64), 'g', -1, 64),
			strconv.FormatFloat(row[2].(float64), 'g', -1, 64), row[3])
		p := "0.0"
		if id%2 == 0 {
			p = "PREDICT(churn, " + feats + ")"
		}
		q := fmt.Sprintf("INSERT INTO scored VALUES (%d, %s, %s)", id, feats, p)
		if _, err := execLevel(db, q, opt.LevelUDF); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	res, err := execLevel(db, "UPDATE scored SET p = PREDICT(churn, age, income, region) WHERE id % 2 = 1", opt.LevelUDF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != int64(ref.N/2) {
		t.Fatalf("UPDATE affected %d, want %d", res.Affected, ref.N/2)
	}
	got, err := db.Exec("SELECT id, p FROM scored ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != ref.N {
		t.Fatalf("scored %d rows, want %d", got.N, ref.N)
	}
	refRows := boxed(ref)
	for i, row := range boxed(got) {
		want := refRows[i][4].(float64)
		if g := row[1].(float64); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("id %v: stored %v, SELECT at LevelFull %v", row[0], g, want)
		}
	}
}
