package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/infer"
	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/policy"
	"repro/internal/provenance"
	"repro/internal/sql"
)

// Flock is the reference architecture facade (Figure 1): a database engine
// with in-DBMS inference, a versioned model registry, RBAC + audit
// governance, a provenance catalog with eager SQL capture, and a policy
// engine bridging predictions to decisions. Every statement, ad hoc or
// prepared, is a Prepared from Parse or Prepare, run by ExecPrepared or
// opened by QueryPrepared, and passes one gate: access-checked, captured,
// logged and audited.
type Flock struct {
	DB       *engine.DB
	Models   *ModelRegistry
	Access   *governance.AccessController
	Audit    *governance.AuditLog
	Catalog  *provenance.Catalog
	Prov     *provenance.SQLTracker
	Policies *policy.Engine

	// Infer is the production inference plane, set by EnableInferPlane.
	// nil means PREDICT uses the engine's direct scoring paths.
	Infer *infer.Plane
}

// EnableInferPlane builds an inference plane over the model registry and
// routes both engine PREDICT paths through it: micro-batched backend
// calls, generation-keyed score caching, and shadow/canary candidate
// deployments gated by drift and agreement stats. The plane's promote
// hook drives ModelRegistry.Promote to production, so an auto-promoted
// canary bumps the registry generation and thereby invalidates cached
// scores and cached plans alike.
func (f *Flock) EnableInferPlane(cfg infer.Config) *infer.Plane {
	if cfg.Promote == nil {
		cfg.Promote = func(model string, version int) error {
			return f.Models.Promote(model, version, StageProduction)
		}
	}
	p := infer.New(f.Models, cfg)
	f.DB.SetPredictPlane(p)
	f.Infer = p
	return p
}

// DisableInferPlane detaches and stops the plane.
func (f *Flock) DisableInferPlane() {
	if f.Infer == nil {
		return
	}
	f.DB.SetPredictPlane(nil)
	f.Infer.Close()
	f.Infer = nil
}

// New assembles a Flock instance. The built-in "admin" role holds every
// permission; assign it to bootstrap users.
func New() (*Flock, error) {
	return newFromDB(engine.NewDB())
}

func newFromDB(db *engine.DB) (*Flock, error) {
	reg, err := NewModelRegistry(db)
	if err != nil {
		return nil, err
	}
	db.SetModelProvider(reg)
	catalog := provenance.NewCatalog()
	f := &Flock{
		DB:       db,
		Models:   reg,
		Access:   governance.NewAccessController(),
		Audit:    governance.NewAuditLog(),
		Catalog:  catalog,
		Prov:     provenance.NewSQLTracker(catalog),
		Policies: policy.NewEngine(),
	}
	for _, act := range []governance.Action{
		governance.ActSelect, governance.ActInsert, governance.ActUpdate,
		governance.ActDelete, governance.ActScore, governance.ActDeploy,
		governance.ActCreate,
	} {
		f.Access.Grant("admin", act, governance.AllObjects)
	}
	return f, nil
}

// Exec is ExecContext without a cancellation context.
func (f *Flock) Exec(user, query string) (*engine.Result, error) {
	return f.ExecContext(context.Background(), user, query)
}

// ExecContext runs query's statements in turn on behalf of user at the
// default optimization level, each through Parse and ExecPrepared, and
// returns the last result. Once ctx is done, execution aborts at the
// engine's next batch boundary, so a disconnecting client, an expired
// deadline, or a server shutdown unwinds the whole statement.
func (f *Flock) ExecContext(ctx context.Context, user, query string) (*engine.Result, error) {
	stmts, err := f.Parse(user, query, f.DB.DefaultLevel)
	if err != nil {
		return nil, err
	}
	var last *engine.Result
	for _, p := range stmts {
		if last, err = f.ExecPrepared(ctx, user, p); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// checkAccess decides whether user may run p: scoring every model it
// references, then reading (SELECT) or writing (under its Kind) its tables.
func (f *Flock) checkAccess(user string, p *Prepared) error {
	acc := p.acc
	for _, m := range acc.Models {
		if err := f.Access.Check(user, governance.ActScore, governance.ModelObject(m)); err != nil {
			return err
		}
	}
	if p.Kind() != "select" {
		for _, t := range acc.WriteTables {
			if err := f.Access.Check(user, governance.Action(p.Kind()), governance.TableObject(t)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range acc.ReadTables {
		err := f.Access.Check(user, governance.ActSelect, governance.TableObject(t))
		if err == nil {
			continue
		}
		// Fine-grained fallback: the read is allowed when every column
		// the statement references on this table is individually
		// granted (column-level access control). A table read with no
		// resolvable column references still requires the table grant.
		cols := columnsForTable(acc, t)
		if len(cols) == 0 {
			return err
		}
		for _, c := range cols {
			if cerr := f.Access.Check(user, governance.ActSelect, governance.ColumnObject(t, c)); cerr != nil {
				return err // report the table-level denial
			}
		}
	}
	return nil
}

// TrainingInfo documents how a deployed model was produced, feeding the
// provenance catalog (model as derived data: code + data lineage).
type TrainingInfo struct {
	Script      string
	Tables      []string
	Hyperparams map[string]string
	Metrics     map[string]string
}

// DeployPipeline exports a trained pipeline, registers it as a new model
// version, promotes it to production, and records full training provenance.
func (f *Flock) DeployPipeline(user, name string, pipe *ml.Pipeline, info TrainingInfo) (int, error) {
	if err := f.Access.Check(user, governance.ActDeploy, governance.ModelObject(name)); err != nil {
		f.Audit.Record(user, "denied", string(governance.ModelObject(name)), "deploy", false)
		return 0, err
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		return 0, err
	}
	return f.deployGraph(user, name, g, info)
}

func (f *Flock) deployGraph(user, name string, g *onnx.Graph, info TrainingInfo) (int, error) {
	version, err := f.Models.Create(name, user, g)
	if err != nil {
		f.Audit.Record(user, "deploy", string(governance.ModelObject(name)), "create failed", false)
		return 0, err
	}
	if err := f.Models.Promote(name, version, StageProduction); err != nil {
		return 0, err
	}
	f.Prov.RecordTraining(name, version, info.Script, info.Tables, info.Hyperparams, info.Metrics)
	f.Audit.Record(user, "deploy", string(governance.ModelObject(name)),
		fmt.Sprintf("version %d promoted to production", version), true)
	return version, nil
}

// Decide scores one row through the named model via SQL and routes the
// prediction through the policy engine, returning the governed outcome —
// the full model-to-decision path of §4.1 in one call. The query must
// return a single float column.
func (f *Flock) Decide(user, model, query, entity string, attrs map[string]float64) (policy.Outcome, error) {
	res, err := f.Exec(user, query)
	if err != nil {
		return policy.Outcome{}, err
	}
	if res.N != 1 || len(res.Cols) != 1 {
		return policy.Outcome{}, fmt.Errorf("core: Decide query must return exactly one value, got %dx%d",
			res.N, len(res.Cols))
	}
	if res.Cols[0].Type != engine.TypeFloat {
		return policy.Outcome{}, fmt.Errorf("core: Decide query must return a float score, got %T", res.Cols[0].Value(0).Any())
	}
	score := res.Cols[0].Floats[0]
	out := f.Policies.Apply(policy.Decision{Model: model, Entity: entity, Score: score, Attrs: attrs})
	f.Audit.Record(user, "decide", string(governance.ModelObject(model)),
		fmt.Sprintf("entity=%s score=%.4f final=%.4f overridden=%t", entity, score, out.Final, out.Overridden), true)
	return out, nil
}

// columnsForTable collects the columns a statement references on one
// table: qualifier-matched columns plus bare references when the table is
// the statement's only read table (so attribution is unambiguous). SELECT *
// yields no resolvable columns, forcing the table-level grant.
func columnsForTable(acc sql.Access, table string) []string {
	var out []string
	out = append(out, acc.Columns[table]...)
	if len(acc.ReadTables) == 1 {
		out = append(out, acc.Columns[""]...)
	}
	return out
}

func firstObject(acc sql.Access) string {
	if len(acc.WriteTables) > 0 {
		return string(governance.TableObject(acc.WriteTables[0]))
	}
	if len(acc.ReadTables) > 0 {
		return string(governance.TableObject(acc.ReadTables[0]))
	}
	if len(acc.Models) > 0 {
		return string(governance.ModelObject(acc.Models[0]))
	}
	return ""
}

// truncate bounds the raw client text a parse-failure audit record keeps.
func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
