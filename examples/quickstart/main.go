// Quickstart: the core Flock loop — load data into the engine, train a
// pipeline "in the cloud", deploy it as a first-class model, score it in
// SQL with PREDICT, then serve the whole thing over HTTP and consume it
// through the Go SDK (pkg/flockclient): sessions, governed queries, and a
// cursor-paged result iterator (see docs/server.md and docs/api.md).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/server"
	"repro/pkg/flockclient"
)

func main() {
	flock, err := core.New()
	if err != nil {
		log.Fatal(err)
	}
	flock.Access.AssignRole("demo", "admin")

	// 1. Operational data lives in the DBMS.
	mustExec(flock, "CREATE TABLE customers (id int, age float, income float, region text)")
	mustExec(flock, `INSERT INTO customers VALUES
		(1, 62.0, 180000.0, 'us-east'), (2, 24.0, 32000.0, 'apac'),
		(3, 47.0, 95000.0, 'eu-north'), (4, 55.0, 120000.0, 'us-east'),
		(5, 31.0, 45000.0, 'latam'),   (6, 68.0, 150000.0, 'eu-north')`)

	// 2. Train a pipeline (this is the "cloud" part — any process works,
	//    the model is just derived data).
	r := ml.NewRand(1)
	n := 2000
	ages := make([]float64, n)
	incomes := make([]float64, n)
	regions := make([]string, n)
	y := make([]float64, n)
	names := []string{"us-east", "eu-north", "apac", "latam"}
	for i := range ages {
		ages[i] = 20 + r.Float64()*55
		incomes[i] = 20000 + r.Float64()*180000
		regions[i] = names[r.Intn(4)]
		if (ages[i]-40)/20+(incomes[i]-90000)/80000 > 0 {
			y[i] = 1
		}
	}
	frame := ml.NewFrame().
		AddNumeric("age", ages).
		AddNumeric("income", incomes).
		AddCategorical("region", regions)
	pipe := ml.NewPipeline("churn",
		ml.NewFeaturizer().
			With("age", &ml.StandardScaler{}).
			With("income", &ml.StandardScaler{}).
			With("region", &ml.OneHotEncoder{}),
		&ml.GradientBoosting{NTrees: 40, MaxDepth: 3, Loss: ml.LossLogistic})
	if err := pipe.Fit(frame, y); err != nil {
		log.Fatal(err)
	}

	// 3. Deploy: versioned, governed, provenance-tracked.
	version, err := flock.DeployPipeline("demo", "churn", pipe, core.TrainingInfo{
		Script: "quickstart.go", Tables: []string{"customers"},
		Hyperparams: map[string]string{"n_trees": "40", "max_depth": "3"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed model churn v%d\n\n", version)

	// 4. Score in the DBMS — no data leaves the engine.
	res, err := flock.Exec("demo", `
		SELECT id, region, PREDICT(churn, age, income, region) AS risk
		FROM customers WHERE PREDICT(churn, age, income, region) > 0.5
		ORDER BY risk DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("high-risk customers (scored in-DB):")
	for i := range res.N {
		fmt.Printf("  id=%v region=%-9v risk=%.3f\n", res.Cols[0].Ints[i], res.Cols[1].Strs[i], res.Cols[2].Floats[i])
	}

	// 5. Everything was audited and captured.
	fmt.Printf("\naudit entries: %d (chain intact: %t)\n",
		flock.Audit.Len(), flock.Audit.Verify() == -1)
	nodes, edges := flock.Catalog.Size()
	fmt.Printf("provenance catalog: %d nodes, %d edges\n", nodes, edges)

	// 6. Serve it and consume it through the SDK: the same governed loop
	//    over HTTP — sessions carry the user identity into RBAC/audit, and
	//    SELECTs page through server-side cursors, so client memory stays
	//    O(page) no matter the result size.
	serveWalkthrough(flock)
}

// serveWalkthrough starts the serving layer in-process, then drives it
// with the public Go SDK: dial (login), a materialized count, a
// cursor-paged iteration, and a clean shutdown.
func serveWalkthrough(flock *core.Flock) {
	srv := server.New(flock, server.Config{
		MaxWorkers:   4,
		Authenticate: server.StaticTokenAuth(map[string]string{"demo": "s3cret"}),
	})
	go func() {
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
	}()
	for srv.Addr() == "" {
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + srv.Addr()
	fmt.Printf("\nserving on %s\n", base)

	ctx := context.Background()
	client, err := flockclient.Dial(ctx, base, "demo",
		flockclient.WithToken("s3cret"), flockclient.WithBatchRows(2))
	if err != nil {
		log.Fatal(err)
	}

	res, err := client.Exec(ctx,
		"SELECT count(*) FROM customers WHERE PREDICT(churn, age, income, region) > 0.5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("high-risk count over HTTP: %v\n", res.Rows[0][0])

	// Cursor-paged iteration (2-row pages here, to show the paging; real
	// clients use the 4096 default): the query runs once server-side and
	// the iterator fetches pages on demand.
	rows, err := client.Query(ctx,
		"SELECT id, region, PREDICT(churn, age, income, region) AS risk FROM customers ORDER BY risk DESC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("risk ranking, paged through a server-side cursor:")
	for rows.Next() {
		var id int64
		var region string
		var risk float64
		if err := rows.Scan(&id, &region, &risk); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  id=%d region=%-9s risk=%.3f\n", id, region, risk)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()

	if err := client.Close(ctx); err != nil {
		log.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("session closed, server drained and shut down cleanly")
}

func mustExec(f *core.Flock, q string) {
	if _, err := f.Exec("demo", q); err != nil {
		log.Fatal(err)
	}
}
