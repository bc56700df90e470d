package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"

	"repro/internal/governance"
	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/policy"
	"repro/internal/provenance"
)

// boxed is res's rows with every cell boxed, for comparing answers.
func boxed(res *engine.Result) [][]any {
	rows := make([][]any, res.N)
	for i := range rows {
		rows[i] = make([]any, len(res.Cols))
		for c, v := range res.Row(i) {
			rows[i][c] = v.Any()
		}
	}
	return rows
}

// trainPipe fits a small churn pipeline for tests.
func trainPipe(t testing.TB) *ml.Pipeline {
	t.Helper()
	r := ml.NewRand(77)
	n := 300
	ages := make([]float64, n)
	regions := make([]string, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		ages[i] = 20 + r.Float64()*50
		regions[i] = []string{"us", "eu", "apac"}[r.Intn(3)]
		if ages[i] > 45 && regions[i] != "apac" {
			y[i] = 1
		}
	}
	f := ml.NewFrame().AddNumeric("age", ages).AddCategorical("region", regions)
	p := ml.NewPipeline("churn",
		ml.NewFeaturizer().With("age", &ml.StandardScaler{}).With("region", &ml.OneHotEncoder{}),
		&ml.GradientBoosting{NTrees: 15, MaxDepth: 3, Loss: ml.LossLogistic})
	if err := p.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	return p
}

func newFlock(t testing.TB) *Flock {
	t.Helper()
	f, err := New()
	if err != nil {
		t.Fatal(err)
	}
	f.Access.AssignRole("root", "admin")
	return f
}

func TestRegistryCreatePromoteResolve(t *testing.T) {
	f := newFlock(t)
	g, err := onnx.Export(trainPipe(t))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := f.Models.Create("churn", "alice", g)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 {
		t.Fatalf("first version = %d", v1)
	}
	// Staging model is resolvable (no production version yet).
	if _, err := f.Models.GraphFor("churn"); err != nil {
		t.Fatal(err)
	}
	if err := f.Models.Promote("churn", 1, StageProduction); err != nil {
		t.Fatal(err)
	}
	v2, err := f.Models.Create("churn", "alice", g)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("second version = %d", v2)
	}
	// Production version still wins over newer staging.
	meta1, _ := metaOf(f.Models, "churn", 1)
	if meta1.Stage != StageProduction {
		t.Errorf("v1 stage = %s", meta1.Stage)
	}
	// Promote v2: v1 is demoted.
	if err := f.Models.Promote("churn", 2, StageProduction); err != nil {
		t.Fatal(err)
	}
	meta1, _ = metaOf(f.Models, "churn", 1)
	if meta1.Stage != StageRetired {
		t.Errorf("v1 stage after demotion = %s", meta1.Stage)
	}
	// Pinned version lookup.
	if _, err := f.Models.GraphFor("churn@1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Models.GraphFor("churn@99"); err == nil {
		t.Error("missing version should error")
	}
	if _, err := f.Models.GraphFor("ghost"); err == nil {
		t.Error("unknown model should error")
	}
	list := f.Models.List()
	if len(list) != 2 || list[0].Version != 1 {
		t.Errorf("list = %v", list)
	}
}

func TestRegistryRejectsInvalidGraph(t *testing.T) {
	f := newFlock(t)
	g, _ := onnx.Export(trainPipe(t))
	bad := g.Clone()
	bad.Model.Coeff = nil
	bad.Model.Op = onnx.OpLinear
	if _, err := f.Models.Create("bad", "x", bad); err == nil {
		t.Error("invalid graph should be rejected")
	}
}

func TestRegistryPersistenceRoundTrip(t *testing.T) {
	f := newFlock(t)
	g, _ := onnx.Export(trainPipe(t))
	if _, err := f.Models.Create("churn", "alice", g); err != nil {
		t.Fatal(err)
	}
	if err := f.Models.Promote("churn", 1, StageProduction); err != nil {
		t.Fatal(err)
	}
	// Blow away the in-memory cache and reload from the system table.
	if err := f.Models.LoadPersisted(); err != nil {
		t.Fatal(err)
	}
	g2, err := f.Models.GraphFor("churn")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Width() != g.Width() || len(g2.Model.Trees) != len(g.Model.Trees) {
		t.Error("persisted graph differs")
	}
	meta, err := metaOf(f.Models, "churn", 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stage != StageProduction || meta.Creator != "alice" {
		t.Errorf("persisted meta = %+v", meta)
	}
}

// TestRegistryRefreshReloadsOnlyOnChange: RefreshModels (a replica's
// per-batch hook) reloads only when the system table changed. A refresh
// with no change leaves the generation — and so every cached plan and
// score — and the query log alone; a newly appended model row is picked up.
func TestRegistryRefreshReloadsOnlyOnChange(t *testing.T) {
	f := newFlock(t)
	g, _ := onnx.Export(trainPipe(t))
	if _, err := f.deployGraph("root", "churn", g, TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := f.RefreshModels(); err != nil {
		t.Fatal(err)
	}
	gen, logged := f.Models.Generation(), len(f.DB.QueryLog())
	for range 5 {
		if err := f.RefreshModels(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Models.Generation(); got != gen {
		t.Fatalf("five refreshes with no model change moved the generation %d -> %d", gen, got)
	}
	if got := len(f.DB.QueryLog()); got != logged {
		t.Fatalf("refreshes appended %d query-log entries", got-logged)
	}

	// A row written by another writer, as a shipped frame lands on a replica.
	blob, err := onnx.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	meta := ModelMeta{Name: "fraud", Version: 1, Stage: StageProduction, Creator: "leader",
		CreatedAt: time.Now(), Inputs: g.InputNames()}
	if err := f.Models.persist(meta, blob); err != nil {
		t.Fatal(err)
	}
	if err := f.RefreshModels(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Models.GraphFor("fraud"); err != nil {
		t.Fatalf("appended model not picked up: %v", err)
	}
	if got := f.Models.Generation(); got != gen+1 {
		t.Fatalf("generation after one real reload = %d, want %d", got, gen+1)
	}
	if got := len(f.DB.QueryLog()); got != logged {
		t.Fatalf("reload appended %d query-log entries", got-logged)
	}
}

// TestRegistryModelNamesAreData: a model name is stored as data, never
// spliced into SQL text. A quoted name deploys and promotes, an
// injection-shaped name rewrites no other model's persisted stage, and a
// reopened instance reads back exactly the stages the registry holds.
func TestRegistryModelNamesAreData(t *testing.T) {
	f := newFlock(t)
	g, _ := onnx.Export(trainPipe(t))
	const inject = `x' OR name <> 'x`
	for _, name := range []string{"alpha", "alpha", "o'brien", "o'brien", inject} {
		if _, err := f.deployGraph("root", name, g, TrainingInfo{}); err != nil {
			t.Fatalf("deploy %q: %v", name, err)
		}
	}
	want := f.Models.List()
	if len(want) != 5 {
		t.Fatalf("registry holds %d versions, want 5", len(want))
	}
	for _, m := range want {
		stage := StageProduction
		if m.Version == 1 && m.Name != inject {
			stage = StageRetired
		}
		if m.Stage != stage {
			t.Errorf("%s v%d is %s, want %s", m.Name, m.Version, m.Stage, stage)
		}
	}

	var buf bytes.Buffer
	if err := f.DB.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f2 := restore(t, &buf)
	got := f2.Models.List()
	if len(got) != len(want) {
		t.Fatalf("reopened registry holds %d versions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Version != want[i].Version || got[i].Stage != want[i].Stage {
			t.Errorf("reopened %s v%d [%s], want %s v%d [%s]", got[i].Name, got[i].Version, got[i].Stage,
				want[i].Name, want[i].Version, want[i].Stage)
		}
	}
}

// restore opens a Flock over a snapshot the way a restart does: the engine
// loads the image and the facade assembles over it (OpenDir's path, minus
// the directory).
func restore(t *testing.T, snap *bytes.Buffer) *Flock {
	t.Helper()
	db := engine.NewDB()
	if err := db.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	f, err := newFromDB(db)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// metaOf finds one version's metadata in the registry's listing.
func metaOf(r *ModelRegistry, name string, version int) (ModelMeta, error) {
	for _, m := range r.List() {
		if m.Name == name && m.Version == version {
			return m, nil
		}
	}
	return ModelMeta{}, fmt.Errorf("model %s version %d not found", name, version)
}

func TestDeployAllAtomic(t *testing.T) {
	f := newFlock(t)
	g, _ := onnx.Export(trainPipe(t))
	bad := g.Clone()
	bad.Feats[0].Input = "ghost" // invalid

	err := f.Models.deployAll([]deployment{
		{Name: "a", Graph: g, Creator: "x"},
		{Name: "b", Graph: bad, Creator: "x"},
	})
	if err == nil {
		t.Fatal("deploy with invalid member should fail")
	}
	if _, err := f.Models.GraphFor("a"); err == nil {
		t.Error("nothing should have deployed (atomicity violated)")
	}

	// All-valid deployment succeeds and lands in production.
	if err := f.Models.deployAll([]deployment{
		{Name: "a", Graph: g, Creator: "x"},
		{Name: "b", Graph: g.Clone(), Creator: "x"},
	}); err != nil {
		t.Fatal(err)
	}
	ma, _ := metaOf(f.Models, "a", 1)
	mb, _ := metaOf(f.Models, "b", 1)
	if ma.Stage != StageProduction || mb.Stage != StageProduction {
		t.Error("deployed models should be in production")
	}
}

func TestFlockEndToEnd(t *testing.T) {
	f := newFlock(t)
	// Load data via governed SQL.
	if _, err := f.Exec("root", "CREATE TABLE customers (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", `INSERT INTO customers VALUES
		(1, 50.0, 'us'), (2, 30.0, 'eu'), (3, 60.0, 'eu'), (4, 55.0, 'apac')`); err != nil {
		t.Fatal(err)
	}
	// Deploy the trained pipeline.
	v, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{
		Script: "train.py", Tables: []string{"customers"},
		Hyperparams: map[string]string{"n_trees": "15"},
		Metrics:     map[string]string{"auc": "0.9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d", v)
	}
	// In-DB scoring.
	res, err := f.Exec("root", "SELECT id, PREDICT(churn, age, region) AS score FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4 {
		t.Fatalf("rows = %v", boxed(res))
	}
	for _, row := range boxed(res) {
		s := row[1].(float64)
		if s < 0 || s > 1 {
			t.Errorf("score %v out of range", s)
		}
	}
	// Audit trail recorded everything and is intact.
	if f.Audit.Len() < 4 {
		t.Errorf("audit entries = %d", f.Audit.Len())
	}
	if bad := f.Audit.Verify(); bad != -1 {
		t.Errorf("audit chain broken at %d", bad)
	}
	// Provenance: the scoring query is connected to the training table.
	queries := f.Catalog.EntitiesOfType(provenance.TypeQuery)
	var scoring *provenance.Entity
	for _, q := range queries {
		if strings.Contains(q.Attrs["text"], "PREDICT") {
			scoring = q
		}
	}
	if scoring == nil {
		t.Fatal("scoring query not captured")
	}
	foundTraining := false
	for _, e := range f.Catalog.Lineage(scoring.ID, provenance.Downstream, 0) {
		if e.Type == provenance.TypeTable && e.Name == "customers" {
			foundTraining = true
		}
	}
	if !foundTraining {
		t.Error("lineage from scoring query to training table broken")
	}
}

func TestFlockAccessControl(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE secrets (id int)"); err != nil {
		t.Fatal(err)
	}
	// Unprivileged user is denied and the denial is audited.
	if _, err := f.Exec("mallory", "SELECT id FROM secrets"); err == nil {
		t.Fatal("expected denial")
	}
	entries := f.Audit.Entries()
	last := entries[len(entries)-1]
	if last.User != "mallory" || last.Allowed {
		t.Errorf("denial not audited: %+v", last)
	}
	// Grant read-only access via a role.
	f.Access.Grant("analyst", governance.ActSelect, governance.TableObject("secrets"))
	f.Access.AssignRole("mallory", "analyst")
	if _, err := f.Exec("mallory", "SELECT id FROM secrets"); err != nil {
		t.Fatalf("granted select denied: %v", err)
	}
	if _, err := f.Exec("mallory", "INSERT INTO secrets VALUES (1)"); err == nil {
		t.Error("insert should still be denied")
	}
	// Model scoring requires a model grant.
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "CREATE TABLE customers (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO customers VALUES (1, 40.0, 'us')"); err != nil {
		t.Fatal(err)
	}
	f.Access.Grant("analyst", governance.ActSelect, governance.TableObject("customers"))
	if _, err := f.Exec("mallory", "SELECT PREDICT(churn, age, region) FROM customers"); err == nil {
		t.Error("scoring without a model grant should be denied")
	}
	f.Access.Grant("analyst", governance.ActScore, governance.ModelObject("churn"))
	if _, err := f.Exec("mallory", "SELECT PREDICT(churn, age, region) FROM customers"); err != nil {
		t.Errorf("granted scoring denied: %v", err)
	}
}

func TestFlockDeployRequiresPermission(t *testing.T) {
	f := newFlock(t)
	if _, err := f.DeployPipeline("intern", "churn", trainPipe(t), TrainingInfo{}); err == nil {
		t.Error("deploy without grant should be denied")
	}
	if _, err := f.Models.GraphFor("churn"); err == nil {
		t.Error("denied deploy must not register the model")
	}
}

func TestFlockDecideWithPolicy(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE jobs (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO jobs VALUES (1, 60.0, 'us')"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Policies.AddRule(policy.Rule{
		Name: "cap", Model: "churn", CapMax: policy.F(0.5), Reason: "risk cap",
	}); err != nil {
		t.Fatal(err)
	}
	out, err := f.Decide("root", "churn",
		"SELECT PREDICT(churn, age, region) AS s FROM jobs WHERE id = 1", "job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Final > 0.5 {
		t.Errorf("cap not applied: %+v", out)
	}
	if out.Decision.Score > 0.5 && !out.Overridden {
		t.Errorf("override not flagged: %+v", out)
	}
	// The decision is audited.
	found := false
	for _, e := range f.Audit.Entries() {
		if e.Action == "decide" {
			found = true
		}
	}
	if !found {
		t.Error("decision not audited")
	}
}

func TestFlockLazyCaptureFromQueryLog(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE t (a int)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Exec("root", "INSERT INTO t VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	// Lazy capture into a FRESH catalog from the engine's query log.
	lazy := provenance.NewCatalog()
	tracker := provenance.NewSQLTracker(lazy)
	captured, skipped := tracker.CaptureLog(f.DB.QueryLog())
	if captured < 6 || skipped != 0 {
		t.Errorf("captured=%d skipped=%d", captured, skipped)
	}
	if len(lazy.Versions(provenance.TypeTable, "t")) < 6 {
		t.Error("lazy capture missed write versions")
	}
}

func TestFlockRestartFromSnapshot(t *testing.T) {
	// Build a full instance: data + deployed model + queries.
	f1 := newFlock(t)
	if _, err := f1.Exec("root", "CREATE TABLE customers (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Exec("root", "INSERT INTO customers VALUES (1, 50.0, 'us'), (2, 30.0, 'eu')"); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	want, err := f1.Exec("root", "SELECT id, PREDICT(churn, age, region) AS s FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f1.DB.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": restore into a fresh Flock; models recover from the
	// system table, and scoring produces identical results.
	f2 := restore(t, &buf)
	f2.Access.AssignRole("root", "admin")
	meta, err := metaOf(f2.Models, "churn", 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stage != StageProduction {
		t.Errorf("recovered stage = %s", meta.Stage)
	}
	got, err := f2.Exec("root", "SELECT id, PREDICT(churn, age, region) AS s FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := boxed(got), boxed(want)
	for i := range wantRows {
		if gotRows[i][1] != wantRows[i][1] {
			t.Fatalf("restored score differs at row %d: %v vs %v", i, gotRows[i][1], wantRows[i][1])
		}
	}
	// The restored query log supports lazy provenance reconstruction.
	lazy := provenance.NewCatalog()
	captured, _ := provenance.NewSQLTracker(lazy).CaptureLog(f2.DB.QueryLog())
	if captured < 3 {
		t.Errorf("lazy rebuild captured %d queries", captured)
	}
	// And new deployments continue the version sequence.
	v, err := f2.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("post-restore version = %d, want 2", v)
	}
}

func TestColumnLevelAccess(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE patients (id int, age float, diagnosis text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO patients VALUES (1, 50.0, 'sensitive')"); err != nil {
		t.Fatal(err)
	}
	// Grant only non-sensitive columns to the researcher role.
	f.Access.Grant("researcher", governance.ActSelect, governance.ColumnObject("patients", "id"))
	f.Access.Grant("researcher", governance.ActSelect, governance.ColumnObject("patients", "age"))
	f.Access.AssignRole("rae", "researcher")

	if _, err := f.Exec("rae", "SELECT id, age FROM patients"); err != nil {
		t.Fatalf("granted columns denied: %v", err)
	}
	if _, err := f.Exec("rae", "SELECT diagnosis FROM patients"); err == nil {
		t.Error("ungranted column should be denied")
	}
	if _, err := f.Exec("rae", "SELECT id, diagnosis FROM patients"); err == nil {
		t.Error("mixed selection including an ungranted column should be denied")
	}
	// SELECT * cannot be resolved to columns: requires the table grant.
	if _, err := f.Exec("rae", "SELECT * FROM patients"); err == nil {
		t.Error("SELECT * without table grant should be denied")
	}
	// Filtering on an ungranted column also counts as reading it.
	if _, err := f.Exec("rae", "SELECT id FROM patients WHERE diagnosis = 'sensitive'"); err == nil {
		t.Error("filtering on an ungranted column should be denied")
	}
	// A full table grant still works and subsumes columns.
	f.Access.Grant("researcher", governance.ActSelect, governance.TableObject("patients"))
	if _, err := f.Exec("rae", "SELECT * FROM patients"); err != nil {
		t.Errorf("table grant should allow star select: %v", err)
	}
}
