// Package provenance implements the catalog and capture modules of §4.2: a
// polymorphic, temporal provenance graph (tables, columns, queries, models,
// scripts, hyperparameters, metrics — all versioned), an Atlas-style
// in-process catalog that bridges the SQL and Python capture modules, eager
// and lazy SQL provenance capture, and compression/summarization of the
// captured graph.
package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// EntityType classifies catalog entities (the "polymorphic" dimension of
// challenge C1).
type EntityType string

// Entity types.
const (
	TypeTable      EntityType = "table"
	TypeColumn     EntityType = "column"
	TypeQuery      EntityType = "query"
	TypeTemplate   EntityType = "template"
	TypeModel      EntityType = "model"
	TypeScript     EntityType = "script"
	TypeDataset    EntityType = "dataset"
	TypeHyperparam EntityType = "hyperparam"
	TypeMetric     EntityType = "metric"
	TypeUser       EntityType = "user"
)

// Edge labels.
const (
	EdgeReads     = "READS"
	EdgeWrites    = "WRITES"
	EdgeScores    = "SCORES"
	EdgeHasColumn = "HAS_COLUMN"
	EdgeTrainedOn = "TRAINED_ON"
	EdgeProduces  = "PRODUCES"
	EdgeHasParam  = "HAS_PARAM"
	EdgeHasMetric = "HAS_METRIC"
	EdgeIssuedBy  = "ISSUED_BY"
	EdgePrevious  = "PREVIOUS_VERSION"
)

// Entity is one node of the provenance graph. Entities are versioned: a
// write to a table yields a new version entity chained to its predecessor
// (the "temporal" dimension of challenge C1).
type Entity struct {
	ID      string // "<type>:<name>@v<version>"
	Type    EntityType
	Name    string
	Version int
	Attrs   map[string]string
	Seq     int64 // creation sequence (logical time)
}

// Edge is a directed, labeled edge between entities.
type Edge struct {
	From  string
	To    string
	Label string
	Seq   int64
}

// Catalog is the thread-safe provenance store shared by all capture
// modules; it plays the role Apache Atlas plays in the paper's prototype.
type Catalog struct {
	mu       sync.RWMutex
	entities map[string]*Entity
	latest   map[string]int // "<type>:<name>" -> latest version
	edges    []Edge
	out      map[string][]int
	in       map[string][]int
	seq      int64
	execs    map[string]*execStat // query entity ID -> repeated executions
}

// execStat counts the executions one query entity stands for once
// SQLTracker.CaptureStmt has folded a repeat into it.
type execStat struct {
	count int64
	last  int64 // catalog sequence of the latest execution
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		entities: map[string]*Entity{},
		latest:   map[string]int{},
		out:      map[string][]int{},
		in:       map[string][]int{},
		execs:    map[string]*execStat{},
	}
}

func entityID(t EntityType, name string, version int) string {
	return string(t) + ":" + name + "@v" + strconv.Itoa(version)
}

func baseKey(t EntityType, name string) string { return string(t) + ":" + name }

// Ensure returns the latest version of the (type, name) entity, creating
// version 1 if absent.
func (c *Catalog) Ensure(t EntityType, name string) *Entity {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ensureLocked(t, name)
}

func (c *Catalog) ensureLocked(t EntityType, name string) *Entity {
	key := baseKey(t, name)
	if v, ok := c.latest[key]; ok {
		return c.entities[entityID(t, name, v)]
	}
	return c.newVersionLocked(t, name, nil)
}

// NewVersion creates a new version of the (type, name) entity, chaining it
// to the previous version with a PREVIOUS_VERSION edge.
func (c *Catalog) NewVersion(t EntityType, name string, attrs map[string]string) *Entity {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.newVersionLocked(t, name, attrs)
}

func (c *Catalog) newVersionLocked(t EntityType, name string, attrs map[string]string) *Entity {
	key := baseKey(t, name)
	version := c.latest[key] + 1
	c.seq++
	e := &Entity{
		ID: entityID(t, name, version), Type: t, Name: name,
		Version: version, Attrs: attrs, Seq: c.seq,
	}
	c.entities[e.ID] = e
	if version > 1 {
		c.addEdgeLocked(e.ID, entityID(t, name, version-1), EdgePrevious)
	}
	c.latest[key] = version
	return e
}

// Latest returns the newest version of the entity, or nil.
func (c *Catalog) Latest(t EntityType, name string) *Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.latest[baseKey(t, name)]
	if !ok {
		return nil
	}
	return c.entities[entityID(t, name, v)]
}

// Versions returns every stored version of the (type, name) entity in
// ascending version order.
func (c *Catalog) Versions(t EntityType, name string) []*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	latest := c.latest[baseKey(t, name)]
	out := make([]*Entity, 0, latest)
	for v := 1; v <= latest; v++ {
		if e := c.entities[entityID(t, name, v)]; e != nil {
			out = append(out, e)
		}
	}
	return out
}

// Get returns an entity by ID, or nil.
func (c *Catalog) Get(id string) *Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entities[id]
}

// SetAttr sets one attribute on a stored entity under the catalog lock.
// Entity pointers are shared across capture modules, so attribute writes
// must be synchronized here rather than mutating Entity.Attrs directly.
func (c *Catalog) SetAttr(id, key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entities[id]
	if e == nil {
		return
	}
	if e.Attrs == nil {
		e.Attrs = map[string]string{}
	}
	e.Attrs[key] = value
}

// Executions reports how many executions query entity id stands for and
// the catalog sequence of the latest one. SQLTracker.CaptureStmt folds
// repeats of one read into one entity; any other entity stands for a single
// execution at its creation sequence. An unknown id reports 0, 0.
func (c *Catalog) Executions(id string) (count, lastSeq int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s := c.execs[id]; s != nil {
		return s.count, s.last
	}
	if e := c.entities[id]; e != nil {
		return 1, e.Seq
	}
	return 0, 0
}

// repeat records one more execution of query entity id, provided every
// entity id's edges point to is still the latest version of its name, and
// reports whether it did. A write since id was captured made a new version
// of something it reads, so the caller must capture afresh.
func (c *Catalog) repeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ei := range c.out[id] {
		e := c.entities[c.edges[ei].To]
		// An ID is "<type>:<name>@v<version>", so its prefix up to the last
		// '@' is the entity's latest-version key.
		if e == nil || c.latest[e.ID[:strings.LastIndexByte(e.ID, '@')]] != e.Version {
			return false
		}
	}
	c.seq++
	s := c.execs[id]
	if s == nil {
		s = &execStat{count: 1}
		c.execs[id] = s
	}
	s.count++
	s.last = c.seq
	return true
}

// AddEdge inserts a deduplicated, labeled edge.
func (c *Catalog) AddEdge(from, to, label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addEdgeLocked(from, to, label)
}

// addEdgeLocked dedups by scanning from's out-list rather than keeping a
// key per edge: out-lists stay short (a query links to its user, tables,
// columns and models; a table version to its columns; a model version to
// its training inputs), and a key set would hold every edge's endpoints a
// second time for the life of the catalog.
func (c *Catalog) addEdgeLocked(from, to, label string) {
	for _, idx := range c.out[from] {
		if e := &c.edges[idx]; e.To == to && e.Label == label {
			return
		}
	}
	c.seq++
	idx := len(c.edges)
	c.edges = append(c.edges, Edge{From: from, To: to, Label: label, Seq: c.seq})
	c.out[from] = append(c.out[from], idx)
	c.in[to] = append(c.in[to], idx)
}

// Size returns the node and edge counts (the paper's provenance-table
// metric is nodes+edges).
func (c *Catalog) Size() (nodes, edges int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entities), len(c.edges)
}

// EntitiesOfType lists entities of one type, ordered by creation.
func (c *Catalog) EntitiesOfType(t EntityType) []*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entity
	for _, e := range c.entities {
		if e.Type == t {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Direction selects lineage traversal direction.
type Direction int

// Traversal directions: Upstream follows incoming edges (what produced
// this), Downstream follows outgoing edges (what this produced).
const (
	Upstream Direction = iota
	Downstream
)

// Lineage returns the entities reachable from id within maxDepth hops in
// the given direction, breadth-first, excluding id itself. maxDepth <= 0
// means unbounded.
func (c *Catalog) Lineage(id string, dir Direction, maxDepth int) []*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	type item struct {
		id    string
		depth int
	}
	seen := map[string]bool{id: true}
	var out []*Entity
	queue := []item{{id, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.depth >= maxDepth {
			continue
		}
		var idxs []int
		if dir == Downstream {
			idxs = c.out[cur.id]
		} else {
			idxs = c.in[cur.id]
		}
		for _, ei := range idxs {
			var next string
			if dir == Downstream {
				next = c.edges[ei].To
			} else {
				next = c.edges[ei].From
			}
			if seen[next] {
				continue
			}
			seen[next] = true
			if e := c.entities[next]; e != nil {
				out = append(out, e)
				queue = append(queue, item{next, cur.depth + 1})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EdgesFrom returns the outgoing edges of an entity.
func (c *Catalog) EdgesFrom(id string) []Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Edge
	for _, idx := range c.out[id] {
		out = append(out, c.edges[idx])
	}
	return out
}

// String summarizes the catalog.
func (c *Catalog) String() string {
	n, e := c.Size()
	return fmt.Sprintf("catalog{nodes=%d edges=%d}", n, e)
}
