package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/infer"
	"repro/internal/ml"
	"repro/internal/onnx"
)

// constGraph builds a one-input linear graph whose score is always c —
// coeff 0 kills the feature, the intercept is the output. Distinct
// constants per version make stale-cache bleed visible through plain SQL.
func constGraph(c float64) *onnx.Graph {
	g := &onnx.Graph{
		Name:   "const",
		Inputs: []onnx.InputSpec{{Name: "age", Kind: ml.KindNumeric}},
		Feats:  []onnx.FeatNode{{Op: onnx.OpScaler, Input: "age", Mean: 0, Scale: 1}},
		Model:  onnx.ModelNode{Op: onnx.OpLinear, Coeff: []float64{0}, Intercept: c},
		Output: "score",
	}
	g.Relayout()
	return g
}

func seedEvents(t *testing.T, f *Flock, rows int) {
	t.Helper()
	if _, err := f.Exec("root", "CREATE TABLE events (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	regions := []string{"us", "eu", "apac"}
	for i := 0; i < rows; i++ {
		q := fmt.Sprintf("INSERT INTO events VALUES (%d, %d.0, '%s')", i, 20+i%50, regions[i%3])
		if _, err := f.Exec("root", q); err != nil {
			t.Fatal(err)
		}
	}
}

func scoresOf(t *testing.T, f *Flock, query string) []float64 {
	t.Helper()
	res, err := f.Exec("root", query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	out := make([]float64, 0, res.N)
	for _, row := range boxed(res) {
		v, ok := row[len(row)-1].(float64)
		if !ok {
			t.Fatalf("score column is %T, want float64", row[len(row)-1])
		}
		out = append(out, v)
	}
	return out
}

// TestInferPlaneEndToEnd routes real SQL PREDICT through the plane and
// asserts scores are identical to the direct engine paths, and that the
// plane actually saw the traffic (cache + batch gauges move).
func TestInferPlaneEndToEnd(t *testing.T) {
	f := newFlock(t)
	seedEvents(t, f, 60)
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{Script: "infer_test"}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, PREDICT(churn, age, region) AS s FROM events ORDER BY id"
	baseline := scoresOf(t, f, q)

	p := f.EnableInferPlane(infer.Config{})
	defer f.DisableInferPlane()

	got := scoresOf(t, f, q)
	if len(got) != len(baseline) {
		t.Fatalf("row count %d != %d", len(got), len(baseline))
	}
	for i := range got {
		if math.Abs(got[i]-baseline[i]) > 1e-12 {
			t.Fatalf("row %d: plane score %v != direct %v", i, got[i], baseline[i])
		}
	}
	// A second pass over the same rows should be served from the score cache.
	_ = scoresOf(t, f, q)
	g := p.Gauges()
	if g["flock_infer_cache_hits_total"] == 0 {
		t.Fatalf("expected cache hits after repeat query, gauges: %v", g)
	}
	if g["flock_infer_batch_calls_total"]+g["flock_infer_direct_total"] == 0 {
		t.Fatalf("plane saw no scoring traffic, gauges: %v", g)
	}
}

// TestInferBatchChaosZeroFailedQueries is the acceptance chaos drill: with
// the infer.batch failpoint armed, every PREDICT query must still succeed
// (degrading to direct scoring) and return the same scores as the healthy
// plane.
func TestInferBatchChaosZeroFailedQueries(t *testing.T) {
	f := newFlock(t)
	seedEvents(t, f, 40)
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{Script: "infer_chaos"}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, PREDICT(churn, age, region) AS s FROM events ORDER BY id"
	baseline := scoresOf(t, f, q)

	p := f.EnableInferPlane(infer.Config{})
	defer f.DisableInferPlane()

	fault.Enable("infer.batch", fault.Spec{}) // deterministic: every flush fails
	defer fault.Reset()

	const workers = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("chaos%d", w)
			f.Access.AssignRole(user, "admin")
			for i := 0; i < iters; i++ {
				res, err := f.Exec(user, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				for r, row := range boxed(res) {
					if got := row[len(row)-1].(float64); math.Abs(got-baseline[r]) > 1e-12 {
						errs <- fmt.Errorf("worker %d iter %d row %d: %v != %v", w, i, r, got, baseline[r])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	g := p.Gauges()
	if g["flock_infer_degraded_total"] == 0 {
		t.Fatalf("expected degraded fallbacks with infer.batch armed, gauges: %v", g)
	}
}

// TestRetrainMidFlightGenerationSafety redeploys the model while queries
// are in flight and asserts the cache never bleeds a score across
// versions: every result is one of the two deployed constants, and once
// redeploys stop, a fresh query observes the final version.
func TestRetrainMidFlightGenerationSafety(t *testing.T) {
	f := newFlock(t)
	seedEvents(t, f, 20)
	consts := []float64{0.25, 0.75}
	if _, err := f.DeployGraph("root", "const", constGraph(consts[0]), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	f.EnableInferPlane(infer.Config{})
	defer f.DisableInferPlane()

	const q = "SELECT id, PREDICT(const, age) AS s FROM events ORDER BY id"

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= 12; k++ {
			time.Sleep(2 * time.Millisecond)
			if _, err := f.DeployGraph("root", "const", constGraph(consts[k%2]), TrainingInfo{}); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
	}()

	var qwg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			user := fmt.Sprintf("retrain%d", w)
			f.Access.AssignRole(user, "admin")
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := f.Exec(user, q)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				for _, row := range boxed(res) {
					s := row[len(row)-1].(float64)
					if s != consts[0] && s != consts[1] {
						select {
						case errs <- fmt.Errorf("score %v is neither deployed constant", s):
						default:
						}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	qwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the churn settles the cache must serve the final version only.
	final := consts[12%2]
	for _, s := range scoresOf(t, f, q) {
		if s != final {
			t.Fatalf("post-redeploy score %v, want %v", s, final)
		}
	}
}
