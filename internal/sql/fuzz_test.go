package sql

import "testing"

// fuzzSeeds are the bench's statement shapes and the NULL and outer-join
// probes the engine answers wrongly today (ROADMAP item 8); FuzzParse also
// starts from every TestFormatRoundTrip query.
var fuzzSeeds = []string{
	"SELECT id, balance, owner, branch FROM accounts WHERE id = 7",
	"SELECT count(*), sum(balance) FROM accounts WHERE branch = 3",
	"SELECT count(*) FROM customers WHERE age > 40.5 AND income < 90000.0",
	"SELECT region, count(*), avg(income), sum(tenure) FROM customers WHERE age > 30.0 GROUP BY region ORDER BY region",
	"SELECT DISTINCT region, notes FROM customers WHERE age > 30.0 ORDER BY region, notes",
	"SELECT id, income FROM customers WHERE tenure > 2.5 ORDER BY income DESC LIMIT 100",
	"SELECT c.region, count(*), sum(v.amount) FROM visits v JOIN customers c ON v.cust_id = c.id WHERE v.amount > 10.0 GROUP BY c.region ORDER BY c.region",
	"SELECT id, age, income, tenure, region, notes FROM customers WHERE id BETWEEN 100 AND 2599",
	"SELECT count(*) FROM customers WHERE id BETWEEN 1 AND 12000 AND PREDICT(churn, age, income, tenure, region, notes) > 0.5",
	"SELECT PREDICT(churn, age, income, tenure, region, notes) FROM customers_hot WHERE id = 42",
	"INSERT INTO customers_hot SELECT id, age, income, tenure, region, notes FROM customers WHERE id >= 0 AND id < 500",
	"INSERT INTO ledger VALUES (1, 2, 3.25); SELECT count(*), sum(amount) FROM ledger WHERE account = 2",
	"CREATE TABLE t (id INT, x FLOAT, s TEXT)",
	"INSERT INTO t (id) VALUES (1)",
	"INSERT INTO t VALUES (2, NULL, NULL)",
	"SELECT count(*) FROM t WHERE x IS NULL",
	"SELECT count(x) FROM t",
	"SELECT NULL",
	"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k WHERE b.w = 99",
	"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k WHERE b.w IS NULL",
	"SELECT a.k, b.w IS NULL FROM a LEFT JOIN b ON a.k = b.k",
	"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k AND b.w < 5",
	"SELECT CASE WHEN id = 2 THEN 1 ELSE 2.5 END FROM t",
	"SELECT id, income * 1e308 * 1e308 FROM customers WHERE id = -1",
}

// FuzzParse: an input either fails to parse or round-trips — every
// statement it holds formats to text that ParseOne reads back and that
// formats to the same text. No input may panic.
func FuzzParse(f *testing.F) {
	for _, q := range append(fuzzSeeds, roundTripQueries...) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		stmts, err := Parse(q)
		if err != nil {
			return
		}
		for _, s := range stmts {
			text := FormatStatement(s)
			again, err := ParseOne(text)
			if err != nil {
				t.Fatalf("%q formats to %q, which does not parse: %v", q, text, err)
			}
			if got := FormatStatement(again); got != text {
				t.Fatalf("%q formats to %q, which formats to %q", q, text, got)
			}
		}
	})
}
