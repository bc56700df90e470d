package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// topkTestDB builds a table whose sort keys are mostly ties and whose float
// key holds every value class the comparator distinguishes: NaN, ±Inf, -0.0
// and 0.0. id is the input position, so a wrong tie-break shows as a wrong id.
func topkTestDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := NewDB()
	seed := uint64(rows)*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300}
	strs := []string{"", "", "a", "b", "ab", "B"}
	ids := make([]int64, rows)
	ki := make([]int64, rows)
	kf := make([]float64, rows)
	ks := make([]string, rows)
	kb := make([]bool, rows)
	for i := range ids {
		ids[i] = int64(i)
		ki[i] = int64(next()%5) - 2
		kf[i] = floats[next()%uint64(len(floats))]
		ks[i] = strs[next()%uint64(len(strs))]
		kb[i] = next()%2 == 0
	}
	if _, err := db.CreateTableFromColumns("t",
		[]string{"id", "ki", "kf", "ks", "kb"},
		[]Column{IntColumn(ids), IntColumn(ki), FloatColumn(kf), StringColumn(ks), Column{Type: TypeBool, Bools: kb}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTopKIsStableSortPrefix is the property behind Sort.TopK: at every k and
// worker count, ORDER BY … LIMIT k returns exactly the first k rows of the
// un-limited ORDER BY, position by position. Sizes straddle a morsel boundary
// and the parallel threshold; keys cover every column type, multi-key and
// mixed-direction orders, expression keys, NULL keys and a key outside the
// select list.
func TestTopKIsStableSortPrefix(t *testing.T) {
	orders := []string{
		`SELECT id, ki FROM t ORDER BY ki`,
		`SELECT id, kf FROM t ORDER BY kf`,
		`SELECT id, kf FROM t ORDER BY kf DESC`,
		`SELECT id, ks FROM t ORDER BY ks DESC`,
		`SELECT id, kb FROM t ORDER BY kb`,
		`SELECT id, ks, kf, ki FROM t ORDER BY ks, kf DESC, ki`,
		`SELECT id, ki, kf FROM t ORDER BY ki * ki DESC, kf`,
		`SELECT id, CASE WHEN kb THEN kf END AS n FROM t ORDER BY n DESC, ks`,
		`SELECT id FROM t WHERE ki <> 0 ORDER BY kf, kb DESC`,
		`SELECT * FROM t ORDER BY kb DESC, ki`,
	}
	workerCounts := []int{1, 2}
	if c := runtime.NumCPU(); c > 2 {
		workerCounts = append(workerCounts, c)
	}
	for _, rows := range []int{morselRows - 1, morselRows + 1, parallelThreshold - 1, parallelThreshold + 1, 3*morselRows + 5} {
		db := topkTestDB(t, rows)
		for _, query := range orders {
			full := runAt(t, db, query, 1)
			n := full.N
			for _, k := range []int{1, 7, 100, n - 1, n, n + 1} {
				want := full
				if k < n {
					want = full.Slice(0, k)
				}
				for _, workers := range workerCounts {
					limited := fmt.Sprintf("%s LIMIT %d", query, k)
					got := runAt(t, db, limited, workers)
					requireIdenticalRowSets(t, fmt.Sprintf("%s (rows=%d workers=%d)", limited, rows, workers), want, got)
				}
			}
		}
	}
}

// TestOrderByPlacesNaNLast pins the comparator's total order on floats: NaN
// after every number (first under DESC), equal to itself, so a full sort is
// sorted and the top-k is its prefix.
func TestOrderByPlacesNaNLast(t *testing.T) {
	db := NewDB()
	for _, q := range []string{
		`CREATE TABLE t (id int, x float, b int)`,
		`INSERT INTO t VALUES (1,1.5,1),(2,2.5,1),(3,0.5,2),(4,2.5,2),(5,1.5,3),(6,0.25,3),(7,9.5,3)`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	const nan = `SELECT id, CASE WHEN b = 2 THEN x*1e308*1e308 - x*1e308*1e308 ELSE x END AS n FROM t ORDER BY n`
	for query, want := range map[string][]int64{
		nan:                   {6, 1, 5, 2, 7, 3, 4},
		nan + ` LIMIT 3`:      {6, 1, 5},
		nan + ` DESC`:         {3, 4, 7, 2, 1, 5, 6},
		nan + ` DESC LIMIT 3`: {3, 4, 7},
	} {
		res, err := db.Exec(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		var got []int64
		for _, row := range boxed(res) {
			got = append(got, row[0].(int64))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: ids %v, want %v", query, got, want)
		}
	}
}

// TestOrderByColumnOutsideSelectList: a key the select list drops is sorted
// on below the projection instead of failing to resolve above it.
func TestOrderByColumnOutsideSelectList(t *testing.T) {
	db := newTestDB(t)
	for query, want := range map[string]string{
		`SELECT id FROM orders ORDER BY amount DESC LIMIT 2`:                   "[[6] [5]]",
		`SELECT id AS k FROM orders ORDER BY priority DESC, k DESC`:            "[[4] [5] [2] [6] [3] [1]]",
		`SELECT region FROM orders o ORDER BY o.id DESC LIMIT 3`:               "[[us] [eu] [apac]]",
		`SELECT id, amount * 2 AS dbl FROM orders ORDER BY priority, dbl DESC`: "[[6 120] [3 60] [1 20] [5 100] [2 40] [4 80]]",
	} {
		res, err := db.Exec(query)
		if err != nil {
			t.Errorf("%s: %v", query, err)
			continue
		}
		if got := fmt.Sprint(boxed(res)); got != want {
			t.Errorf("%s: rows %s, want %s", query, got, want)
		}
	}
	if _, err := db.Exec(`SELECT DISTINCT region FROM orders ORDER BY amount`); err == nil {
		t.Error("DISTINCT ordered by an unprojected column must be rejected")
	}
}
