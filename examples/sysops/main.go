// Sysops: the paper's own in-production example — "models to automate the
// selection of parallelism for large big data jobs ... models occasionally
// predict resource requirements in excess of user-specified caps; business
// rules expressed as policies then override the model" (the Cosmos
// scenario). Demonstrates regression models, policy caps, transactional
// batch application with rollback, and the optimization-level ablation.
// The scoring query runs over the wire: an allocator process connects to
// the serving layer through the Go SDK (pkg/flockclient) and iterates a
// prepared, cursor-paged PREDICT query — the deployment shape the paper's
// Cosmos anecdote implies.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/opt"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/pkg/flockclient"
)

func main() {
	flock, err := core.New()
	if err != nil {
		log.Fatal(err)
	}
	flock.Access.AssignRole("sre", "admin")

	// Historical job telemetry.
	mustExec(flock, `CREATE TABLE jobs
		(id int, input_gb float, stages float, avg_row_bytes float, queue text, user_cap float)`)
	r := ml.NewRand(11)
	queues := []string{"interactive", "batch", "adhoc"}
	for i := 1; i <= 200; i++ {
		q := fmt.Sprintf("INSERT INTO jobs VALUES (%d, %.1f, %.0f, %.0f, '%s', %.0f)",
			i, 1+r.Float64()*500, 1+r.Float64()*20, 50+r.Float64()*500,
			queues[r.Intn(3)], 100+float64(r.Intn(4))*100)
		mustExec(flock, q)
	}

	// Train a token-requirement regressor.
	pipe := trainTokenModel()
	if _, err := flock.DeployPipeline("sre", "tokens", pipe, core.TrainingInfo{
		Script: "sysops_train.go", Tables: []string{"jobs"},
	}); err != nil {
		log.Fatal(err)
	}

	// Policy: never allocate below 10 tokens; the per-job user cap is
	// applied in the transactional action below (caps that depend on the
	// decision's own attributes live in the action, static ones in rules).
	must(flock.Policies.AddRule(policy.Rule{
		Name: "floor", Model: "tokens", CapMin: policy.F(10),
		Reason: "minimum viable allocation",
	}))

	// Serve the governed instance and score the jobs over the wire: the
	// allocator dials in through the SDK and iterates a prepared,
	// cursor-paged PREDICT query (4-row pages here to show the paging).
	srv := server.New(flock, server.Config{MaxWorkers: 4,
		OnSession: func(user string) { flock.Access.AssignRole(user, "admin") }})
	go func() {
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
	}()
	for srv.Addr() == "" {
		time.Sleep(5 * time.Millisecond)
	}
	ctx := context.Background()
	client, err := flockclient.Dial(ctx, "http://"+srv.Addr(), "sre",
		flockclient.WithBatchRows(4))
	if err != nil {
		log.Fatal(err)
	}
	stmt, err := client.Prepare(ctx, `SELECT id, user_cap,
		PREDICT(tokens, input_gb, stages, avg_row_bytes, queue) AS predicted
		FROM jobs ORDER BY id LIMIT 10`)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := stmt.Query(ctx)
	if err != nil {
		log.Fatal(err)
	}
	allocations := map[int64]float64{}
	var decisions []policy.Decision
	for rows.Next() {
		var id int64
		var userCap, predicted float64
		if err := rows.Scan(&id, &userCap, &predicted); err != nil {
			log.Fatal(err)
		}
		decisions = append(decisions, policy.Decision{
			Model:  "tokens",
			Entity: fmt.Sprint(id),
			Score:  predicted,
			Attrs:  map[string]float64{"user_cap": userCap, "id": float64(id)},
		})
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()
	outcomes, err := flock.Policies.ApplyBatch(decisions,
		func(o policy.Outcome) error {
			alloc := o.Final
			if cap := o.Decision.Attrs["user_cap"]; alloc > cap {
				alloc = cap // the cap rule of the paper's Cosmos anecdote
			}
			allocations[int64(o.Decision.Attrs["id"])] = alloc
			return nil
		},
		func(o policy.Outcome) error {
			delete(allocations, int64(o.Decision.Attrs["id"]))
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("token allocations (model prediction vs capped allocation):")
	for _, o := range outcomes {
		id := int64(o.Decision.Attrs["id"])
		capped := ""
		if allocations[id] < o.Decision.Score {
			capped = "  <- capped by policy"
		}
		fmt.Printf("  job %3d: predicted %7.1f -> allocated %7.1f%s\n",
			id, o.Decision.Score, allocations[id], capped)
	}

	// Optimization-level ablation on the full scoring query.
	fmt.Println("\nscoring latency by optimizer level (200 jobs, 50-tree GBM):")
	const q = `SELECT avg(PREDICT(tokens, input_gb, stages, avg_row_bytes, queue)) AS mean FROM jobs`
	for _, level := range []opt.Level{opt.LevelUDF, opt.LevelVectorized, opt.LevelFull} {
		start := time.Now()
		for i := 0; i < 20; i++ {
			stmts, err := flock.Parse("sre", q, level)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := flock.ExecPrepared(ctx, "sre", stmts[0]); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  %-12s %8.2f ms / query\n", level, float64(time.Since(start).Microseconds())/20/1000)
	}

	if err := client.Close(ctx); err != nil {
		log.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
}

func trainTokenModel() *ml.Pipeline {
	r := ml.NewRand(12)
	n := 4000
	inputGB := make([]float64, n)
	stages := make([]float64, n)
	rowBytes := make([]float64, n)
	queue := make([]string, n)
	y := make([]float64, n)
	queues := []string{"interactive", "batch", "adhoc"}
	for i := 0; i < n; i++ {
		inputGB[i] = 1 + r.Float64()*500
		stages[i] = 1 + r.Float64()*20
		rowBytes[i] = 50 + r.Float64()*500
		queue[i] = queues[r.Intn(3)]
		y[i] = inputGB[i]*0.8 + stages[i]*12 + rowBytes[i]*0.05 + r.NormFloat64()*15
		if queue[i] == "interactive" {
			y[i] *= 1.4
		}
	}
	f := ml.NewFrame().
		AddNumeric("input_gb", inputGB).
		AddNumeric("stages", stages).
		AddNumeric("avg_row_bytes", rowBytes).
		AddCategorical("queue", queue)
	p := ml.NewPipeline("tokens",
		ml.NewFeaturizer().
			With("input_gb", &ml.StandardScaler{}).
			With("stages", &ml.StandardScaler{}).
			With("avg_row_bytes", &ml.StandardScaler{}).
			With("queue", &ml.OneHotEncoder{}),
		&ml.GradientBoosting{NTrees: 50, MaxDepth: 4})
	if err := p.Fit(f, y); err != nil {
		log.Fatal(err)
	}
	return p
}

func mustExec(f *core.Flock, q string) {
	if _, err := f.Exec("sre", q); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
