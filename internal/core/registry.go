// Package core is Flock's heart: it treats ML models as first-class data
// types in the DBMS (§4.1). The ModelRegistry stores serialized model
// graphs in a system table with versions and lifecycle stages, supports
// transactional multi-model deployment, and serves deployed graphs to the
// query engine's PREDICT operator. The Flock facade (flock.go) wires the
// registry, governance, provenance and policy modules into every statement.
package core

import (
	"context"
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/onnx"
	"repro/internal/sql"
)

// Stage is a model lifecycle stage.
type Stage string

// Lifecycle stages.
const (
	StageStaging    Stage = "staging"
	StageProduction Stage = "production"
	StageRetired    Stage = "retired"
)

// modelsTable is the system table backing the registry — models are stored
// *in the database*, alongside the data they are derived from.
const modelsTable = "flock_models"

// ModelMeta describes one stored model version.
type ModelMeta struct {
	Name      string
	Version   int
	Stage     Stage
	Creator   string
	CreatedAt time.Time
	Inputs    []string
	NumNodes  int
	BlobSize  int
}

// ModelRegistry stores and serves versioned models.
type ModelRegistry struct {
	mu     sync.RWMutex
	db     *engine.DB
	graphs map[string]*onnx.Graph // "name@version" -> decoded graph
	metas  map[string][]ModelMeta // name -> versions ascending
	gen    int64                  // bumped whenever GraphFor resolution can change

	// loaded and loadedVer identify the system table state LoadPersisted
	// last read: a rebase installs a new *Table, so both are compared.
	loaded    *engine.Table
	loadedVer int64
}

// Generation returns a counter that advances whenever model resolution can
// change (create, promote, transactional deploy, recovery). Plan caches key
// their validity on it: a cached plan embeds a possibly-rewritten model
// graph, so any registry change must force a replan.
func (r *ModelRegistry) Generation() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// NewModelRegistry creates the registry and its backing system table. When
// the system table already exists (a database restored from a snapshot),
// the registry recovers its state from the persisted rows instead —
// restart-proof model management.
func NewModelRegistry(db *engine.DB) (*ModelRegistry, error) {
	r := &ModelRegistry{db: db, graphs: map[string]*onnx.Graph{}, metas: map[string][]ModelMeta{}}
	if _, err := db.Table(modelsTable); err == nil {
		if err := r.LoadPersisted(); err != nil {
			return nil, fmt.Errorf("core: recovering model registry: %w", err)
		}
		return r, nil
	}
	if db.IsReplica() {
		// A replica must not create the system table itself: its WAL holds
		// exactly the leader's frame sequence, and the leader's own create
		// will arrive as a shipped frame. Start empty; the replication
		// OnApplied hook refreshes the registry once rows exist.
		return r, nil
	}
	_, err := db.CreateTable(modelsTable, engine.Schema{
		{Name: "name", Type: engine.TypeString},
		{Name: "version", Type: engine.TypeInt},
		{Name: "stage", Type: engine.TypeString},
		{Name: "creator", Type: engine.TypeString},
		{Name: "created_at", Type: engine.TypeString},
		{Name: "inputs", Type: engine.TypeString},
		{Name: "blob", Type: engine.TypeString},
	})
	if err != nil {
		return nil, fmt.Errorf("core: creating model system table: %w", err)
	}
	return r, nil
}

// Create stores a new version of the named model (starting in staging) and
// returns the assigned version number.
func (r *ModelRegistry) Create(name, creator string, g *onnx.Graph) (int, error) {
	if err := g.Validate(); err != nil {
		return 0, fmt.Errorf("core: refusing to register invalid model %q: %w", name, err)
	}
	blob, err := onnx.Marshal(g)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := len(r.metas[name]) + 1
	meta := ModelMeta{
		Name: name, Version: version, Stage: StageStaging, Creator: creator,
		CreatedAt: time.Now(), Inputs: g.InputNames(),
		NumNodes: g.NumNodes(), BlobSize: len(blob),
	}
	if err := r.persist(meta, blob); err != nil {
		return 0, err
	}
	r.metas[name] = append(r.metas[name], meta)
	r.graphs[key(name, version)] = g.Clone()
	r.gen++
	return version, nil
}

func key(name string, version int) string { return name + "@" + strconv.Itoa(version) }

// persist writes the model row into the system table (caller holds lock).
// The append goes through the DB's durable write path, so a deployed model
// survives a crash exactly like any committed INSERT.
func (r *ModelRegistry) persist(m ModelMeta, blob []byte) error {
	return r.db.AppendRows(modelsTable, [][]engine.Value{{
		engine.StringValue(m.Name),
		engine.IntValue(int64(m.Version)),
		engine.StringValue(string(m.Stage)),
		engine.StringValue(m.Creator),
		engine.StringValue(m.CreatedAt.UTC().Format(time.RFC3339)),
		engine.StringValue(strings.Join(m.Inputs, ",")),
		engine.StringValue(base64.StdEncoding.EncodeToString(blob)),
	}})
}

// Promote moves a model version to a lifecycle stage. Promoting a version
// to production demotes any other production version of the same model.
func (r *ModelRegistry) Promote(name string, version int, stage Stage) error {
	switch stage {
	case StageStaging, StageProduction, StageRetired:
	default:
		return fmt.Errorf("core: unknown stage %q", stage)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoteLocked(name, version, stage)
}

func (r *ModelRegistry) promoteLocked(name string, version int, stage Stage) error {
	versions := r.metas[name]
	idx := -1
	for i := range versions {
		if versions[i].Version == version {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: model %s version %d not found", name, version)
	}
	if stage == StageProduction {
		for i := range versions {
			if versions[i].Stage == StageProduction && i != idx {
				versions[i].Stage = StageRetired
				r.syncStage(versions[i])
			}
		}
	}
	versions[idx].Stage = stage
	r.syncStage(versions[idx])
	r.gen++
	return nil
}

// syncStage mirrors a stage change into the system table. The UPDATE is
// built from literal nodes, never from SQL text, so a model name is data
// whatever quotes it holds.
func (r *ModelRegistry) syncStage(m ModelMeta) {
	eq := func(col string, v *sql.Lit) sql.Expr { return &sql.Binary{Op: "=", L: &sql.ColRef{Name: col}, R: v} }
	stmt := &sql.UpdateStmt{Table: modelsTable,
		Sets: []sql.SetClause{{Column: "stage", Value: &sql.Lit{Kind: sql.LitString, S: string(m.Stage)}}},
		Where: &sql.Binary{Op: "AND",
			L: eq("name", &sql.Lit{Kind: sql.LitString, S: m.Name}),
			R: eq("version", &sql.Lit{Kind: sql.LitInt, I: int64(m.Version)})}}
	// The system table always exists and the statement is well formed;
	// an error here would indicate registry corruption.
	if _, err := r.db.ExecStmtContext(context.Background(), stmt, engine.ExecOptions{Level: r.db.DefaultLevel}); err != nil {
		panic(fmt.Sprintf("core: model system table out of sync: %v", err))
	}
}

// deployment is one step of a transactional deployment.
type deployment struct {
	Name    string
	Graph   *onnx.Graph // nil to promote an existing version
	Version int         // used when Graph is nil
	Creator string
}

// deployAll atomically deploys a set of models to production: either every
// deployment validates and applies, or none does. This is the paper's
// requirement that "multiple models might have to be updated
// transactionally" (e.g. a featurizer model and its downstream scorer).
func (r *ModelRegistry) deployAll(deps []deployment) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	// Phase 1: validate everything up front.
	blobs := make([][]byte, len(deps))
	for i, d := range deps {
		if d.Graph != nil {
			if err := d.Graph.Validate(); err != nil {
				return fmt.Errorf("core: deployAll: model %q invalid, nothing deployed: %w", d.Name, err)
			}
			blob, err := onnx.Marshal(d.Graph)
			if err != nil {
				return fmt.Errorf("core: deployAll: model %q, nothing deployed: %w", d.Name, err)
			}
			blobs[i] = blob
		} else {
			found := false
			for _, m := range r.metas[d.Name] {
				if m.Version == d.Version {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("core: deployAll: model %s version %d not found, nothing deployed", d.Name, d.Version)
			}
		}
	}

	// Phase 2: apply. All mutations below cannot fail validation anymore.
	for i, d := range deps {
		version := d.Version
		if d.Graph != nil {
			version = len(r.metas[d.Name]) + 1
			meta := ModelMeta{
				Name: d.Name, Version: version, Stage: StageStaging, Creator: d.Creator,
				CreatedAt: time.Now(), Inputs: d.Graph.InputNames(),
				NumNodes: d.Graph.NumNodes(), BlobSize: len(blobs[i]),
			}
			if err := r.persist(meta, blobs[i]); err != nil {
				// Appending to the system table can only fail on schema
				// drift; treat as corruption.
				panic(fmt.Sprintf("core: model system table out of sync: %v", err))
			}
			r.metas[d.Name] = append(r.metas[d.Name], meta)
			r.graphs[key(d.Name, version)] = d.Graph.Clone()
		}
		if err := r.promoteLocked(d.Name, version, StageProduction); err != nil {
			panic(fmt.Sprintf("core: deployAll postcondition violated: %v", err))
		}
	}
	return nil
}

// GraphFor implements opt.ModelProvider: it resolves a model name (or
// "name@version") to its graph, preferring the production version.
func (r *ModelRegistry) GraphFor(name string) (*onnx.Graph, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if at := strings.LastIndex(name, "@"); at > 0 {
		v, err := strconv.Atoi(name[at+1:])
		if err == nil {
			g, ok := r.graphs[key(name[:at], v)]
			if !ok {
				return nil, fmt.Errorf("core: model %s not found", name)
			}
			return g, nil
		}
	}
	versions := r.metas[name]
	if len(versions) == 0 {
		return nil, fmt.Errorf("core: model %q not deployed", name)
	}
	// Prefer production; otherwise the newest non-retired; otherwise error.
	var pick *ModelMeta
	for i := range versions {
		m := &versions[i]
		if m.Stage == StageProduction {
			pick = m
			break
		}
		if m.Stage == StageStaging {
			pick = m
		}
	}
	if pick == nil {
		return nil, fmt.Errorf("core: model %q has no active version", name)
	}
	return r.graphs[key(name, pick.Version)], nil
}

// List returns all model versions, sorted by name then version.
func (r *ModelRegistry) List() []ModelMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ModelMeta
	for _, versions := range r.metas {
		out = append(out, versions...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// LoadPersisted rebuilds the in-memory registry from the system table —
// the recovery path proving models really are stored as data. It reads a
// snapshot of the table, not SQL, and reloads (bumping the generation)
// only when the table changed since the last load.
func (r *ModelRegistry) LoadPersisted() error {
	t, err := r.db.Table(modelsTable)
	if err != nil {
		return err
	}
	ver := t.Version()
	r.mu.Lock()
	defer r.mu.Unlock()
	if t == r.loaded && ver == r.loadedVer {
		return nil
	}
	c, _, n, err := t.SnapshotAt(ver)
	if err != nil {
		return err
	}
	graphs := map[string]*onnx.Graph{}
	metas := map[string][]ModelMeta{}
	// Columns in schema order: name, version, stage, creator, created_at,
	// inputs, blob. Rows are appended in version order per name.
	for i := range n {
		name, version := c[0].Strs[i], int(c[1].Ints[i])
		blob, err := base64.StdEncoding.DecodeString(c[6].Strs[i])
		if err != nil {
			return fmt.Errorf("core: corrupt blob for %s@%d: %w", name, version, err)
		}
		g, err := onnx.Unmarshal(blob)
		if err != nil {
			return fmt.Errorf("core: corrupt model %s@%d: %w", name, version, err)
		}
		created, _ := time.Parse(time.RFC3339, c[4].Strs[i])
		meta := ModelMeta{
			Name: name, Version: version, Stage: Stage(c[2].Strs[i]),
			Creator: c[3].Strs[i], CreatedAt: created,
			Inputs:   strings.Split(c[5].Strs[i], ","),
			NumNodes: g.NumNodes(), BlobSize: len(blob),
		}
		metas[name] = append(metas[name], meta)
		graphs[key(name, version)] = g
	}
	r.graphs, r.metas = graphs, metas
	r.loaded, r.loadedVer = t, ver
	r.gen++
	return nil
}

// RefreshModels reloads the registry from the persisted system table — the
// replication OnApplied hook, so a replica picks up models deployed on the
// leader as soon as their rows ship. A no-op before the system table's own
// create frame has arrived.
func (f *Flock) RefreshModels() error {
	if _, err := f.DB.Table(modelsTable); err != nil {
		return nil
	}
	return f.Models.LoadPersisted()
}
