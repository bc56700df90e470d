package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/pkg/flockclient"
)

// Sizes of the tables the workloads run against. customers is loaded by
// flock-serve itself (-rows, generator seed 7); the rest are created over
// SQL during set-up.
const (
	customerRows = 200000
	customerSeed = 7
	accountRows  = 5000
	branchCount  = 16
	visitRows    = 20000
	// hotFirst..hotFirst+hotRows-1 are the customers copied into
	// customers_hot. They start beyond the prefix flock-serve scores at boot
	// for its drift monitor, so no copied row is in the score cache yet.
	hotFirst = 100001
	hotRows  = 60000
	hotSet   = 512
	// insertChunk rows go into one INSERT ... VALUES statement at load.
	insertChunk = 1000
)

type opMode uint8

const (
	modeExec     opMode = iota // ad hoc Client.Exec
	modePrepared               // Stmt.Exec of a statement prepared once
	modeCursor                 // Client.Query, every row scanned
)

// op is one operation of a client's schedule.
type op struct {
	template string
	sql      string
	mode     opMode
	write    bool
	// want is the expected result of a read. The plan fills it where the
	// answer can be computed in Go; the reference pass fills the rest from
	// the udf route.
	want [][]any
	// scan drains and checks a cursor (modeCursor).
	scan func(*flockclient.Rows) error
	// acked runs after the server acknowledged a write.
	acked func()
	// fresh marks a read that costs less the second time because the first
	// left its rows in the score cache. The traced phase does not replay
	// such reads: the replay would measure different work and would count
	// as cache hits in the server's own metrics.
	fresh bool
}

// plan is everything one run derives from the seed.
type plan struct {
	// refs run once through flockclient.WithLevel("udf") before the window.
	refs []*op
	// clients holds one endless generator per client. Generators are not
	// safe for concurrent use; each belongs to one client goroutine.
	clients []func() *op
	// verify, when set, checks server state after the last phase.
	verify func(v *verifier) error
}

// workload is one traffic mix and the server shape it runs against.
type workload struct {
	name string
	why  string
	// serveArgs follow the shipped defaults on the leader's command line.
	serveArgs []string
	followers int
	// clientsPerCore multiplies the closed loop's size; 0 means 1.
	clientsPerCore int
	// warmOps is the least number of operations the clients complete between them
	// before warm-up may end (predict_point primes its hot set with them).
	warmOps int
	// probeOps statements of client 0's schedule are replayed in-process by
	// the probes: 200 where a statement costs well under a millisecond,
	// fewer where one costs tens, so the probe phase stays a few seconds.
	probeOps int
	// needsModel says the plan computes expected answers from churn scores,
	// so the reference model is trained and every customer scored first.
	needsModel bool
	// pageRows is the cursor page size the clients ask for; 0 keeps the
	// SDK's default of 4096.
	pageRows int
	// loadSQL creates and fills the workload's own tables.
	loadSQL func(seed uint64) []string
	plan    func(seed uint64, clients int, t *truth) *plan
}

var workloads = []*workload{
	{
		name: "short_read",
		why:  "prepared sub-millisecond reads: SDK, HTTP, session, admission and plan-cache cost per request dominates; engine, WAL, infer idle",
		// With one client per core the cores fall idle between requests
		// thousands of times a second, and on a virtual machine every such
		// halt and wake-up is an exit to the host, whose cost follows the
		// host's load: CPU per operation then wanders by a quarter for
		// minutes. Two clients per core keep the cores from halting.
		clientsPerCore: 2,
		probeOps:       200,
		loadSQL:        func(seed uint64) []string { return accountsSQL(seed) },
		plan:           planShortRead,
	},
	{
		name:     "scan_agg",
		why:      "ad hoc filters, group-bys, distinct, top-k and a join over 200k rows: engine kernels, hashes and morsel merge are over 95% of the time",
		probeOps: 20,
		loadSQL:  visitsSQL,
		plan:     planScanAgg,
	},
	{
		name:     "wide_rows",
		why:      "2500-row six-column cursor reads in five pages: result boxing, JSON encode, wire and SDK decode dominate the same scan layer scan_agg uses",
		probeOps: 8,
		pageRows: widePage,
		loadSQL:  func(uint64) []string { return nil },
		plan:     planWideRows,
	},
	{
		name:       "predict_scan",
		why:        "the paper's Figure-4 shape, PREDICT over a 12k-row range per query: cross-optimiser, tree walks and featurisers dominate; batcher bypassed",
		probeOps:   10,
		needsModel: true,
		loadSQL:    func(uint64) []string { return nil },
		plan:       planPredictScan,
	},
	{
		name:       "predict_point",
		why:        "single-row PREDICT, 80% guaranteed score-cache misses and 20% guaranteed hits: inference-plane batch window and cache are most of the latency",
		warmOps:    hotSet,
		probeOps:   200,
		needsModel: true,
		loadSQL: func(uint64) []string {
			return []string{
				"CREATE TABLE customers_hot (id int, age float, income float, tenure float, region text, notes text)",
				fmt.Sprintf("INSERT INTO customers_hot SELECT id, age, income, tenure, region, notes FROM customers WHERE id >= %d AND id < %d",
					hotFirst, hotFirst+hotRows),
			}
		},
		plan: planPredictPoint,
	},
	{
		name: "write_mixed",
		why:  "70% reads beside 30% one-row commits under quorum acks to two followers: WAL encode, fsync, ship, acks and checkpoints dominate cost and tail",
		// The window is 12 s, so checkpoints run every 2 s to get several
		// cycles of background work into it.
		serveArgs: []string{"-repl-ack", "quorum", "-repl-quorum", "2", "-checkpoint-interval", "2s"},
		followers: 2,
		probeOps:  200,
		loadSQL: func(seed uint64) []string {
			return append(accountsSQL(seed), ledgerSQL()...)
		},
		plan: planWriteMixed,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng derives an independent deterministic stream per (seed, purpose).
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Stream ids: one per independent use of the seed.
const (
	streamAccounts = iota + 1
	streamVisits
	streamShortRead
	streamScanAgg
	streamWideRows
	streamPredictScan
	streamPredictPoint
	streamClient = 1000 // + client index
)

// quarter draws a multiple of 0.25 in [0, max): sums of such values are
// exact in float64, so expected sums do not depend on summation order.
func quarter(r *rand.Rand, max int) float64 { return float64(r.IntN(max*4)) / 4 }

// sqlFloat renders a constant the way it goes into SQL text (decimals > 0,
// so the literal is a float one), and returns the value the server will
// parse back, for use in expected answers.
func sqlFloat(x float64, decimals int) (string, float64) {
	s := strconv.FormatFloat(x, 'f', decimals, 64)
	v, _ := strconv.ParseFloat(s, 64) // s was just formatted from a float
	return s, v
}

// ---- generated tables ----

type account struct {
	id      int64
	balance float64
	owner   string
	branch  int64
}

func genAccounts(seed uint64) []account {
	r := rng(seed, streamAccounts)
	out := make([]account, accountRows)
	for i := range out {
		id := int64(i + 1)
		out[i] = account{id: id, balance: quarter(r, 10000), owner: fmt.Sprintf("owner-%03d", r.IntN(500)), branch: int64(r.IntN(branchCount))}
	}
	return out
}

func accountsSQL(seed uint64) []string {
	acc := genAccounts(seed)
	out := []string{"CREATE TABLE accounts (id int, balance float, owner text, branch int)"}
	return append(out, insertChunks("accounts", len(acc), func(b *strings.Builder, i int) {
		bal, _ := sqlFloat(acc[i].balance, 2)
		fmt.Fprintf(b, "(%d, %s, '%s', %d)", acc[i].id, bal, acc[i].owner, acc[i].branch)
	})...)
}

// The ledger starts with one row per account, so no read in write_mixed
// ever sums an empty set.
func ledgerSQL() []string {
	out := []string{"CREATE TABLE ledger (id int, account int, amount float)"}
	return append(out, insertChunks("ledger", accountRows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, %d, 1.0)", i+1, i+1)
	})...)
}

type visit struct {
	custID  int64
	amount  float64
	channel string
}

var channels = []string{"web", "store", "phone", "app"}

func genVisits(seed uint64) []visit {
	r := rng(seed, streamVisits)
	out := make([]visit, visitRows)
	for i := range out {
		out[i] = visit{custID: int64(1 + r.IntN(customerRows)), amount: quarter(r, 100), channel: channels[r.IntN(len(channels))]}
	}
	return out
}

func visitsSQL(seed uint64) []string {
	vs := genVisits(seed)
	out := []string{"CREATE TABLE visits (cust_id int, amount float, channel text)"}
	return append(out, insertChunks("visits", len(vs), func(b *strings.Builder, i int) {
		amt, _ := sqlFloat(vs[i].amount, 2)
		fmt.Fprintf(b, "(%d, %s, '%s')", vs[i].custID, amt, vs[i].channel)
	})...)
}

func insertChunks(table string, n int, row func(b *strings.Builder, i int)) []string {
	var out []string
	for lo := 0; lo < n; lo += insertChunk {
		var b strings.Builder
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < min(lo+insertChunk, n); i++ {
			if i > lo {
				b.WriteString(", ")
			}
			row(&b, i)
		}
		out = append(out, b.String())
	}
	return out
}

// cycle returns a generator walking pool round-robin from start.
func cycle(pool []*op, start int) func() *op {
	i := start
	return func() *op {
		o := pool[i%len(pool)]
		i++
		return o
	}
}

// ---- short_read ----

// 64 statements, prepared once per client: 48 point reads and 16 branch
// aggregates over the 5k-row accounts table. 64 is far below the 256-entry
// plan cache, so every Stmt.Exec finds its plan.
func planShortRead(seed uint64, clients int, _ *truth) *plan {
	acc := genAccounts(seed)
	r := rng(seed, streamShortRead)
	var points, aggs []*op
	for _, i := range r.Perm(accountRows)[:48] {
		a := acc[i]
		points = append(points, &op{
			template: "point", mode: modePrepared,
			sql:  fmt.Sprintf("SELECT id, balance, owner, branch FROM accounts WHERE id = %d", a.id),
			want: [][]any{{a.id, a.balance, a.owner, a.branch}},
		})
	}
	for b := int64(0); b < branchCount; b++ {
		var n int64
		var sum float64
		for _, a := range acc {
			if a.branch == b {
				n++
				sum += a.balance
			}
		}
		aggs = append(aggs, &op{
			template: "branch_agg", mode: modePrepared,
			sql:  fmt.Sprintf("SELECT count(*), sum(balance) FROM accounts WHERE branch = %d", b),
			want: [][]any{{n, sum}},
		})
	}
	p := &plan{refs: append(append([]*op(nil), points...), aggs...)}
	for c := 0; c < clients; c++ {
		// Every fourth slot is an aggregate; which statement fills a slot
		// is the client's own seeded order.
		cr := rng(seed, streamClient+uint64(c))
		po, ao := cr.Perm(len(points)), cr.Perm(len(aggs))
		pool := make([]*op, 0, 64)
		for i, pi, ai := 0, 0, 0; i < 64; i++ {
			if i%4 == 3 {
				pool = append(pool, aggs[ao[ai]])
				ai++
			} else {
				pool = append(pool, points[po[pi]])
				pi++
			}
		}
		p.clients = append(p.clients, cycle(pool, 0))
	}
	return p
}

// ---- scan_agg ----

const scanAggInstances = 6 // per template

// Five ad hoc templates over customers (and visits), each instance with
// its own seeded constant. Each constant is drawn from a range over which
// the predicate's selectivity moves by about a tenth, so that cost is level
// across seeds: latency_p50_ms sits inside one template's distribution and
// would otherwise follow that template's constants.
func planScanAgg(seed uint64, clients int, t *truth) *plan {
	r := rng(seed, streamScanAgg)
	var pool []*op
	for i := 0; i < scanAggInstances; i++ {
		age, ageV := sqlFloat(30+r.Float64()*10, 2)
		inc, incV := sqlFloat(120000+r.Float64()*30000, 2)
		var n int64
		for j := range t.ages {
			if t.ages[j] > ageV && t.income[j] < incV {
				n++
			}
		}
		pool = append(pool, &op{
			template: "filter_count",
			sql:      fmt.Sprintf("SELECT count(*) FROM customers WHERE age > %s AND income < %s", age, inc),
			want:     [][]any{{n}},
		})
		age, _ = sqlFloat(25+r.Float64()*10, 2)
		pool = append(pool, &op{
			template: "group_region",
			sql:      fmt.Sprintf("SELECT region, count(*), avg(income), sum(tenure) FROM customers WHERE age > %s GROUP BY region ORDER BY region", age),
		})
		age, _ = sqlFloat(25+r.Float64()*10, 2)
		pool = append(pool, &op{
			template: "distinct",
			sql:      fmt.Sprintf("SELECT DISTINCT region, notes FROM customers WHERE age > %s ORDER BY region, notes", age),
		})
		ten, _ := sqlFloat(2+r.Float64()*2, 2)
		pool = append(pool, &op{
			template: "topk",
			sql:      fmt.Sprintf("SELECT id, income FROM customers WHERE tenure > %s ORDER BY income DESC LIMIT 100", ten),
		})
		amt, _ := sqlFloat(10+r.Float64()*15, 2)
		pool = append(pool, &op{
			template: "join_group",
			sql:      fmt.Sprintf("SELECT c.region, count(*), sum(v.amount) FROM visits v JOIN customers c ON v.cust_id = c.id WHERE v.amount > %s GROUP BY c.region ORDER BY c.region", amt),
		})
	}
	p := &plan{refs: pool}
	for c := 0; c < clients; c++ {
		// Offsets are whole rounds of the five templates, so every client
		// walks the same template sequence.
		p.clients = append(p.clients, cycle(pool, (c*scanAggInstances/clients)*5))
	}
	return p
}

// ---- wide_rows ----

// One query returns wideRange rows in five pages of widePage. The issue
// drafted 20k rows in 4096-row pages for a 20 s window; a query that size
// takes a third of a second here, and the driver's 12 s window needs well
// over 200 of them, so both are scaled down by eight.
const (
	wideRange     = 2500
	widePage      = 500
	wideInstances = 8
)

func planWideRows(seed uint64, clients int, t *truth) *plan {
	r := rng(seed, streamWideRows)
	var pool []*op
	for i := 0; i < wideInstances; i++ {
		lo := 1 + r.IntN(customerRows-wideRange+1)
		pool = append(pool, &op{
			template: "range_rows", mode: modeCursor,
			sql: fmt.Sprintf("SELECT id, age, income, tenure, region, notes FROM customers WHERE id BETWEEN %d AND %d",
				lo, lo+wideRange-1),
			scan: t.scanRange(lo-1, wideRange),
		})
	}
	p := &plan{refs: pool}
	for c := 0; c < clients; c++ {
		p.clients = append(p.clients, cycle(pool, c*wideInstances/clients))
	}
	return p
}

// ---- predict_scan ----

const (
	// predictRange rows are scored per query, three of the engine's
	// 4096-row inference chunks: far above the batcher's 256-row bound, so
	// the micro-batcher is bypassed. (The issue drafted 40k rows for a 20 s
	// window; the 12 s window needs smaller queries to complete enough.)
	predictRange = 12288
	// predictRefRange is the width of the instances that also go through
	// the udf route. Row-mode PREDICT pays the plane's batch window per row,
	// so a full-width reference would take a minute per query.
	predictRefRange = 16
)

func predictScanOp(t *truth, lo, n int, threshold float64) *op {
	th, thV := sqlFloat(threshold, 3)
	var cnt int64
	for _, s := range t.scores[lo : lo+n] {
		if s > thV {
			cnt++
		}
	}
	return &op{
		template: "predict_count", fresh: true,
		sql: fmt.Sprintf("SELECT count(*) FROM customers WHERE id BETWEEN %d AND %d AND PREDICT(churn, age, income, tenure, region, notes) > %s",
			lo+1, lo+n, th),
		want: [][]any{{cnt}},
	}
}

// Each client walks its own share of the table range by range, round and
// round. Shares are disjoint, so no client ever finds rows another has
// just scored; and a client returns to a range only after the clients
// together have scored about the whole table (200k rows) while the score
// cache holds 65536, so it does not find its own either. Clients that can
// reach each other's rows through the cache couple: the one behind answers
// from the cache, catches up, and the pair then runs a quarter faster in
// tandem until something separates them, for seconds at a time.
func planPredictScan(seed uint64, clients int, t *truth) *plan {
	r := rng(seed, streamPredictScan)
	share := customerRows / clients
	positions := share / predictRange
	first := r.IntN(share - positions*predictRange + 1)
	p := &plan{}
	for i := 0; i < 4; i++ {
		p.refs = append(p.refs, predictScanOp(t, r.IntN(customerRows-predictRefRange), predictRefRange, 0.3+r.Float64()*0.4))
	}
	for c := 0; c < clients; c++ {
		var pool []*op
		for round := 0; round < 2; round++ {
			for pos := 0; pos < positions; pos++ {
				pool = append(pool, predictScanOp(t, c*share+first+pos*predictRange, predictRange, 0.3+r.Float64()*0.4))
			}
		}
		p.clients = append(p.clients, cycle(pool, 0))
	}
	return p
}

// ---- predict_point ----

func predictPointOp(t *truth, template string, id int) *op {
	return &op{
		template: template, fresh: template != "hit",
		sql:  fmt.Sprintf("SELECT PREDICT(churn, age, income, tenure, region, notes) FROM customers_hot WHERE id = %d", id),
		want: [][]any{{t.scores[id-1]}},
	}
}

// A seeded permutation of customers_hot splits into a hot set of 512 ids
// and a miss list. Each client first requests its share of the hot set
// (priming the score cache during warm-up), then repeats four misses and
// one hit: a miss takes the next id nobody has requested before, a hit
// re-requests a primed id. Which path an operation takes is therefore
// fixed by its position, never by chance.
func planPredictPoint(seed uint64, clients int, t *truth) *plan {
	r := rng(seed, streamPredictPoint)
	perm := r.Perm(hotRows)
	hot, misses := perm[:hotSet], perm[hotSet:]
	p := &plan{}
	for i := 0; i < 16; i++ {
		p.refs = append(p.refs, predictPointOp(t, "hit", hotFirst+hot[i]))
	}
	for c := 0; c < clients; c++ {
		c := c
		n, nextHot, nextMiss := 0, c, c
		p.clients = append(p.clients, func() *op {
			defer func() { n++ }()
			if prime := c + n*clients; prime < hotSet {
				return predictPointOp(t, "prime", hotFirst+hot[prime])
			}
			if n%5 == 4 {
				id := hot[nextHot%hotSet]
				nextHot += clients
				return predictPointOp(t, "hit", hotFirst+id)
			}
			if nextMiss >= len(misses) {
				panic(fmt.Sprintf("predict_point: all %d never-requested ids are used up; enlarge hotRows", len(misses)))
			}
			id := misses[nextMiss]
			nextMiss += clients
			return predictPointOp(t, "miss", hotFirst+id)
		})
	}
	return p
}

// ---- write_mixed ----

type ledgerRow struct {
	id, account int64
	amount      float64
}

// writeModel is one client's view of the rows only it writes: accounts
// whose id ≡ client (mod clients), and the ledger rows of those accounts.
// A closed-loop client sees its own writes in order, so every read of an
// owned row has exactly one right answer.
type writeModel struct {
	owned   []int64
	balance map[int64]float64
	count   map[int64]int64
	sum     map[int64]float64
	acked   []ledgerRow
	sent    []ledgerRow
}

// Ten operations per round: seven reads (four account lookups, three
// ledger aggregates), two ledger inserts, one account update.
var writeRound = []string{
	"read_account", "read_ledger", "read_account", "insert_ledger", "read_ledger",
	"read_account", "update_account", "read_account", "insert_ledger", "read_ledger",
}

func planWriteMixed(seed uint64, clients int, _ *truth) *plan {
	acc := genAccounts(seed)
	models := make([]*writeModel, clients)
	p := &plan{}
	for c := 0; c < clients; c++ {
		m := &writeModel{balance: map[int64]float64{}, count: map[int64]int64{}, sum: map[int64]float64{}}
		for _, a := range acc {
			if int(a.id-1)%clients == c {
				m.owned = append(m.owned, a.id)
				m.balance[a.id] = a.balance
				m.count[a.id] = 1
				m.sum[a.id] = 1
			}
		}
		models[c] = m
		r := rng(seed, streamClient+uint64(c))
		n := 0
		nextID := int64(accountRows + 1 + c)
		p.clients = append(p.clients, func() *op {
			kind := writeRound[n%len(writeRound)]
			n++
			k := m.owned[r.IntN(len(m.owned))]
			switch kind {
			case "read_account":
				return &op{template: kind, sql: fmt.Sprintf("SELECT id, balance FROM accounts WHERE id = %d", k),
					want: [][]any{{k, m.balance[k]}}}
			case "read_ledger":
				return &op{template: kind, sql: fmt.Sprintf("SELECT count(*), sum(amount) FROM ledger WHERE account = %d", k),
					want: [][]any{{m.count[k], m.sum[k]}}}
			case "insert_ledger":
				amt, amtV := sqlFloat(quarter(r, 100), 2)
				row := ledgerRow{id: nextID, account: k, amount: amtV}
				nextID += int64(clients)
				m.count[k]++
				m.sum[k] += amtV
				m.sent = append(m.sent, row)
				return &op{template: kind, write: true,
					sql:   fmt.Sprintf("INSERT INTO ledger VALUES (%d, %d, %s)", row.id, row.account, amt),
					acked: func() { m.acked = append(m.acked, row) }}
			default: // update_account
				d, dV := sqlFloat(quarter(r, 50), 2)
				m.balance[k] += dV
				return &op{template: kind, write: true,
					sql: fmt.Sprintf("UPDATE accounts SET balance = balance + %s WHERE id = %d", d, k)}
			}
		})
	}
	p.verify = func(v *verifier) error { return verifyWriteMixed(v, models) }
	return p
}
