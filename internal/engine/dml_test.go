package engine

import (
	"fmt"
	"math"
	"strconv"
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
			case !c.wantErr && err != nil:
				t.Fatalf("%s: %v", c.stmts[last], err)
			case !c.wantErr && res.Affected != c.affected:
				t.Fatalf("%s: affected %d, want %d", c.stmts[last], res.Affected, c.affected)
			}
			got, err := db.Exec(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(c.want) {
				t.Fatalf("%s: rows %v, want %v", c.query, got.Rows, c.want)
			}
			for i := range c.want {
				for j := range c.want[i] {
					if got.Rows[i][j] != c.want[i][j] {
						t.Fatalf("%s: rows %v, want %v", c.query, got.Rows, c.want)
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
	ref, err := db.ExecLevel(`SELECT id, age, income, region, PREDICT(churn, age, income, region) AS p
		FROM customers WHERE id < 20 ORDER BY id`, opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE scored (id int, age float, income float, region text, p float)"); err != nil {
		t.Fatal(err)
	}
	// Half the rows are scored by INSERT VALUES, half by UPDATE.
	for _, row := range ref.Rows {
		id := row[0].(int64)
		feats := fmt.Sprintf("%s, %s, '%s'", strconv.FormatFloat(row[1].(float64), 'g', -1, 64),
			strconv.FormatFloat(row[2].(float64), 'g', -1, 64), row[3])
		p := "0.0"
		if id%2 == 0 {
			p = "PREDICT(churn, " + feats + ")"
		}
		q := fmt.Sprintf("INSERT INTO scored VALUES (%d, %s, %s)", id, feats, p)
		if _, err := db.ExecLevel(q, opt.LevelUDF); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	res, err := db.ExecLevel("UPDATE scored SET p = PREDICT(churn, age, income, region) WHERE id % 2 = 1", opt.LevelUDF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != int64(len(ref.Rows)/2) {
		t.Fatalf("UPDATE affected %d, want %d", res.Affected, len(ref.Rows)/2)
	}
	got, err := db.Exec("SELECT id, p FROM scored ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(ref.Rows) {
		t.Fatalf("scored %d rows, want %d", len(got.Rows), len(ref.Rows))
	}
	for i, row := range got.Rows {
		want := ref.Rows[i][4].(float64)
		if g := row[1].(float64); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("id %v: stored %v, SELECT at LevelFull %v", row[0], g, want)
		}
	}
}
