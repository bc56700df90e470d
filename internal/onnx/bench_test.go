package onnx_test

import (
	"fmt"
	"testing"

	"repro/internal/onnx"
	"repro/internal/workload"
)

// BenchmarkSessionScore scores the demo churn model flock-serve deploys (a
// 50-tree depth-4 GBM over scaled numerics, a one-hot region and a hashed
// note) at one row, at the inference plane's 256-row batch and at a full
// 4096-row morsel, through Session.RunInto: featurizing plus the tree
// kernel, the work a scan-mode PREDICT does per chunk.
func BenchmarkSessionScore(b *testing.B) {
	pipe, err := workload.TrainScoringPipeline(4000, 42, 50, true)
	if err != nil {
		b.Fatal(err)
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		b.Fatal(err)
	}
	frame, _ := workload.ScoringFrame(workload.ScoringConfig{Rows: 4096, Seed: 7, Regions: 4, WithText: true})
	all, err := onnx.BatchFromFrame(g, frame)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := onnx.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 256, 4096} {
		batch := &onnx.Batch{N: n, Cols: make([]onnx.Column, len(all.Cols))}
		for i, c := range all.Cols {
			if c.Nums != nil {
				batch.Cols[i].Nums = c.Nums[:n]
			} else {
				batch.Cols[i].Strs = c.Strs[:n]
			}
		}
		out := make([]float64, n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sess.RunInto(batch, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
