// Command flock-sql is an interactive shell over a Flock instance
// pre-loaded with the Figure-4 scoring table and a deployed "churn" model,
// for poking at the engine and the PREDICT extension:
//
//	$ flock-sql
//	flock> SELECT region, avg(PREDICT(churn, age, income, tenure, region, notes)) AS risk
//	       FROM customers GROUP BY region ORDER BY risk DESC
//
// Meta commands: \tables, \models, \audit, \prov, \explain <query>,
// \save <path>, \quit.
//
// With -url the shell connects to a running flock-serve over the wire
// protocol through the Go SDK (pkg/flockclient) instead of embedding an
// engine: statements stream through server-side cursors, so even huge
// results print page by page with O(page) client memory. Only \quit works
// remotely; the other meta commands inspect in-process state.
//
//	$ flock-sql -url http://127.0.0.1:8080 -user alice -token s3cret
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/workload"
	"repro/pkg/flockclient"
)

func main() {
	rows := flag.Int("rows", 10000, "size of the demo customers table")
	url := flag.String("url", "", "connect to a flock-serve at this base URL instead of embedding an engine")
	user := flag.String("user", "shell", "user for the remote session (-url mode)")
	token := flag.String("token", "", "credential token for the remote session (-url mode)")
	flag.Parse()

	if *url != "" {
		runRemote(*url, *user, *token)
		return
	}

	flock, err := core.New()
	if err != nil {
		fatal(err)
	}
	flock.Access.AssignRole("shell", "admin")
	if err := workload.LoadScoringTable(flock.DB, workload.ScoringConfig{
		Rows: *rows, Seed: 7, Regions: 6, WithText: true,
	}); err != nil {
		fatal(err)
	}
	pipe, err := workload.TrainScoringPipeline(4000, 42, 50, true)
	if err != nil {
		fatal(err)
	}
	if _, err := flock.DeployPipeline("shell", "churn", pipe, core.TrainingInfo{
		Script: "flock-sql bootstrap", Tables: []string{"customers"},
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("flock-sql: %d customers loaded, model 'churn' deployed. \\quit to exit.\n", *rows)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("flock> ")
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, t := range flock.DB.TableNames() {
				tab, _ := flock.DB.Table(t)
				fmt.Printf("  %s (%d rows)\n", t, tab.NumRows())
			}
		case line == `\models`:
			for _, m := range flock.Models.List() {
				fmt.Printf("  %s v%d [%s] inputs=%v nodes=%d blob=%dB\n",
					m.Name, m.Version, m.Stage, m.Inputs, m.NumNodes, m.BlobSize)
			}
		case line == `\audit`:
			for _, e := range flock.Audit.Entries() {
				fmt.Printf("  #%d %s %s %s allowed=%t\n", e.Seq, e.User, e.Action, e.Object, e.Allowed)
			}
			fmt.Printf("  chain intact: %t\n", flock.Audit.Verify() == -1)
		case line == `\prov`:
			n, e := flock.Catalog.Size()
			fmt.Printf("  catalog: %d nodes, %d edges\n", n, e)
		case strings.HasPrefix(line, `\save `):
			// Crash-safe save: temp file + fsync + atomic rename (a crash
			// mid-\save can no longer corrupt an existing snapshot in place,
			// and write/close errors surface instead of being discarded).
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			if err := flock.DB.SaveSnapshotFile(path); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("snapshot written to", path)
			}
		case strings.HasPrefix(line, `\explain `):
			explain(flock, strings.TrimPrefix(line, `\explain `))
		default:
			run(flock, line)
		}
	}
}

func run(flock *core.Flock, query string) {
	res, err := flock.Exec("shell", query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(res.Cols) > 0 {
		fmt.Println(strings.Join(res.Schema.Names(), " | "))
	}
	limit := min(res.N, 40)
	for i := range limit {
		parts := make([]string, len(res.Cols))
		for c, v := range res.Row(i) {
			parts[c] = fmt.Sprint(v.Any())
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	if res.N > limit {
		fmt.Printf("... (%d rows total)\n", res.N)
	}
	if res.Affected > 0 {
		fmt.Printf("%d rows affected\n", res.Affected)
	}
}

func explain(flock *core.Flock, query string) {
	stmt, err := sql.ParseOne(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		fmt.Println("\\explain takes a SELECT")
		return
	}
	o := engine.ExecOptions{Level: flock.DB.DefaultLevel}
	plan, err := flock.DB.PlanSelect(sel, o.Level)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// A fresh plan, owned here: stamping the worker cap on it is safe.
	plan.Report.Parallelism = o.MaxWorkers()
	fmt.Print(opt.FormatPlan(plan.Root))
	fmt.Println("optimizer:", &plan.Report)
}

// runRemote is the SDK-backed shell: every statement goes over the wire,
// SELECT results page through a server-side cursor (printed as they
// arrive, capped at 40 rows like the local shell).
func runRemote(url, user, token string) {
	ctx := context.Background()
	var opts []flockclient.Option
	if token != "" {
		opts = append(opts, flockclient.WithToken(token))
	}
	c, err := flockclient.Dial(ctx, url, user, opts...)
	if err != nil {
		fatal(err)
	}
	defer c.Close(context.Background())
	fmt.Printf("flock-sql: connected to %s as %s. \\quit to exit.\n", url, user)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("flock> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case strings.HasPrefix(line, `\`):
			fmt.Println("meta commands inspect in-process state; only \\quit works over -url")
		case strings.HasPrefix(strings.ToLower(line), "select"):
			runRemoteSelect(ctx, c, line)
		default:
			res, err := c.Exec(ctx, line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if res.Affected > 0 {
				fmt.Printf("%d rows affected\n", res.Affected)
			} else if len(res.Rows) > 0 {
				printRemoteRows(res.Columns, res.Rows, len(res.Rows))
			}
		}
	}
}

func runRemoteSelect(ctx context.Context, c *flockclient.Client, query string) {
	rs, err := c.Query(ctx, query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rs.Close()
	cols := rs.Columns()
	if len(cols) > 0 {
		fmt.Println(strings.Join(cols, " | "))
	}
	const display = 40
	printed, total := 0, 0
	row := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range row {
		ptrs[i] = &row[i]
	}
	for rs.Next() {
		if err := rs.Scan(ptrs...); err != nil {
			fmt.Println("error:", err)
			return
		}
		total++
		if printed < display {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(parts, " | "))
			printed++
		}
	}
	if err := rs.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	if total > printed {
		fmt.Printf("... (%d rows total)\n", total)
	}
}

func printRemoteRows(cols []string, rows [][]any, limit int) {
	if len(cols) > 0 {
		fmt.Println(strings.Join(cols, " | "))
	}
	for _, row := range rows[:limit] {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flock-sql:", err)
	os.Exit(1)
}
