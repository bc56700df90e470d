package infer

import (
	"context"
	"sync"
	"testing"

	"repro/internal/onnx"
	"repro/internal/workload"
)

// benchGraph exports the demo churn pipeline flock-serve deploys: a
// 50-tree GBM over scaled numerics, a one-hot region, and a hashed text
// column — per-call scoring cost in the microseconds, like any real model.
func benchGraph(b testing.TB) *onnx.Graph {
	b.Helper()
	pipe, err := workload.TrainScoringPipeline(1000, 42, 50, true)
	if err != nil {
		b.Fatal(err)
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchRows synthesizes single-row batches drawn from a small population,
// the shape row-mode PREDICT UDF traffic has: many concurrent sessions,
// one feature vector per call, heavy value reuse across calls.
func benchRows(n int) []*onnx.Batch {
	rows := make([]*onnx.Batch, n)
	regions := []string{"us", "eu", "apac", "latam", "mea", "anz"}
	notes := []string{
		"renewal call scheduled support ticket open",
		"asked about enterprise tier pricing",
		"quiet account no recent activity",
		"escalated billing dispute twice this quarter",
	}
	for i := range rows {
		rows[i] = &onnx.Batch{
			N: 1,
			Cols: []onnx.Column{
				{Nums: []float64{20 + float64(i%50)}},
				{Nums: []float64{30000 + float64(i%40)*2500}},
				{Nums: []float64{float64(i % 10)}},
				{Strs: []string{regions[i%len(regions)]}},
				{Strs: []string{notes[i%len(notes)]}},
			},
		}
	}
	return rows
}

// BenchmarkPredict drives 32 concurrent sessions of single-row PREDICT
// calls over a small population of rows. mode=percall scores each call
// directly through a shared session (the engine's pre-plane row path);
// mode=plane routes the same calls through the batcher and score cache.
// The end-to-end speed claim is the predict_point workload of bench/.
func BenchmarkPredict(b *testing.B) {
	g := benchGraph(b)
	rows := benchRows(512)
	const sessions = 32

	run := func(b *testing.B, score func(ctx context.Context, rowIdx int, out []float64) error) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		per := b.N / sessions
		if per == 0 {
			per = 1
		}
		errCh := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				out := make([]float64, 1)
				for i := 0; i < per; i++ {
					if err := score(context.Background(), (s*per+i)%len(rows), out); err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
				}
			}(s)
		}
		wg.Wait()
		select {
		case err := <-errCh:
			b.Fatal(err)
		default:
		}
	}

	b.Run("mode=percall", func(b *testing.B) {
		sess, err := onnx.NewSession(g)
		if err != nil {
			b.Fatal(err)
		}
		run(b, func(_ context.Context, i int, out []float64) error {
			return sess.RunInto(rows[i], out)
		})
	})

	b.Run("mode=plane", func(b *testing.B) {
		reg := newFakeRegistry()
		reg.redeploy(g.Name, g)
		p := New(reg, Config{})
		defer p.Close()
		run(b, func(ctx context.Context, i int, out []float64) error {
			return p.Score(ctx, g.Name, g, rows[i], out)
		})
	})
}
