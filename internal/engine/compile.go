package engine

import (
	"context"
	"fmt"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/sql"
)

// compileEnv supplies out-of-schema context to the compiler: model
// resolution for row-mode PREDICT (the UDF path). UDF-mode predictions go
// through a per-call JSON remote scorer, reproducing the cost profile of a
// containerized scoring service invoked via HTTP/REST.
type compileEnv struct {
	// ctx is the query's cancellation context; row-mode PREDICT polls it
	// before every scorer call so a hung scoring service cannot wedge the
	// per-row loop. nil means no cancellation.
	ctx       context.Context
	graphFor  func(model string) (*onnx.Graph, error)
	remoteFor func(g *onnx.Graph) (onnx.Scorer, error)
	// plane, when set, routes row-mode PREDICT through the inference
	// plane — the path where cross-session micro-batching pays off most,
	// since every call here is a one-row batch.
	plane PredictPlane
}

// compileVecPredict compiles PREDICT in scalar position — the unoptimized
// "external UDF call" path of Figure 4. Its arguments are batch kernels
// evaluated once per batch; then, per row, it builds a one-row batch and
// makes one scorer call, so the per-call cost profile of the baseline is
// preserved. A row whose arguments carry an error aborts the batch.
func compileVecPredict(x *sql.Predict, schema Schema, env *compileEnv) (vecFunc, error) {
	if env == nil || env.graphFor == nil || env.remoteFor == nil {
		return nil, fmt.Errorf("engine: PREDICT is not available in this context")
	}
	g, err := env.graphFor(x.Model)
	if err != nil {
		return nil, err
	}
	// The plane's backend validates and scores g; without a plane the
	// remote scorer built for it does.
	var remote onnx.Scorer
	if env.plane == nil {
		if remote, err = env.remoteFor(g); err != nil {
			return nil, err
		}
	}
	if len(x.Args) != len(g.Inputs) {
		return nil, fmt.Errorf("engine: PREDICT(%s, ...) takes %d arguments, got %d",
			x.Model, len(g.Inputs), len(x.Args))
	}
	args := make([]vecFunc, len(x.Args))
	for i, a := range x.Args {
		if args[i], err = compileVec(a, schema, env); err != nil {
			return nil, err
		}
	}
	kinds := make([]ml.ColKind, len(g.Inputs))
	for i, in := range g.Inputs {
		kinds[i] = in.Kind
	}
	return func(rs *RowSet) (*Vec, error) {
		vals := make([]*Vec, len(args))
		for i, a := range args {
			v, err := a(rs)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out := newVec(TypeFloat, rs.N)
		for r := 0; r < rs.N; r++ {
			// env.ctx is read per row, not captured at compile time: a
			// stream cursor re-anchors the environment on each Next's
			// context, and the compiled op must observe that (the cursor
			// outlives the request whose context it was compiled under).
			ctx := env.ctx
			if err := ctxCheck(ctx); err != nil {
				return nil, err
			}
			// One-row batch per invocation: deliberately allocation-heavy,
			// mirroring per-call UDF marshalling overheads.
			b := &onnx.Batch{N: 1, Cols: make([]onnx.Column, len(vals))}
			for i, vec := range vals {
				if vec.hasErr(r) {
					return nil, vec.Err
				}
				v := vec.valueAt(r)
				if kinds[i] == ml.KindNumeric {
					f, err := v.AsFloat()
					if err != nil {
						return nil, fmt.Errorf("engine: PREDICT argument %d: %w", i+1, err)
					}
					b.Cols[i] = onnx.Column{Nums: []float64{f}}
				} else {
					if v.Kind != TypeString {
						return nil, fmt.Errorf("engine: PREDICT argument %d must be text", i+1)
					}
					b.Cols[i] = onnx.Column{Strs: []string{v.S}}
				}
			}
			score := make([]float64, 1)
			var err error
			if env.plane != nil {
				err = env.plane.Score(ctx, x.Model, g, b, score)
			} else {
				score, err = onnx.ScoreWithContext(ctx, remote, b)
			}
			if err != nil {
				return nil, err
			}
			out.Floats[r] = score[0]
		}
		return out, nil
	}, nil
}
