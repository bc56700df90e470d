package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond point lookups to multi-second analytical scans.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket cumulative histogram (Prometheus exposition
// shape). Observations are mutex-guarded; the serving hot path makes one
// observe call per query, which is noise next to query execution.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the extra slot is +Inf
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// writeProm renders the histogram in Prometheus text exposition format.
// labels is a pre-rendered label body like `kind="select"` ("" for none).
func (h *histogram) writeProm(w io.Writer, name, labels string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()

	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatBound(b), cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, total)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, total)
	}
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// counterVec is a labeled counter family.
type counterVec struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newCounterVec() *counterVec { return &counterVec{m: map[string]uint64{}} }

func (c *counterVec) inc(label string) {
	c.mu.Lock()
	c.m[label]++
	c.mu.Unlock()
}

func (c *counterVec) snapshot() map[string]uint64 {
	c.mu.Lock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	c.mu.Unlock()
	return out
}

// queryKinds are the fixed latency-histogram families ("fetch" is one
// server-side cursor page pull).
var queryKinds = []string{"select", "dml", "fetch", "other"}

// metrics aggregates everything /metrics exports. All members are safe for
// concurrent use.
type metrics struct {
	start time.Time

	queryLatency  map[string]*histogram // by query kind
	admissionWait *histogram

	queriesTotal      *counterVec // by terminal status
	admissionRejected atomic.Uint64

	// cursorsExpired counts server-side cursors reaped by the TTL sweep.
	cursorsExpired atomic.Uint64

	planHits      atomic.Uint64
	planMisses    atomic.Uint64
	planEvictions atomic.Uint64
}

func newMetrics() *metrics {
	m := &metrics{
		start:         time.Now(),
		queryLatency:  map[string]*histogram{},
		admissionWait: newHistogram(latencyBuckets),
		queriesTotal:  newCounterVec(),
	}
	for _, k := range queryKinds {
		m.queryLatency[k] = newHistogram(latencyBuckets)
	}
	return m
}

// observeQuery records one finished query.
func (m *metrics) observeQuery(kind, status string, elapsed time.Duration) {
	h, ok := m.queryLatency[kind]
	if !ok {
		h = m.queryLatency["other"]
	}
	h.observe(elapsed.Seconds())
	m.queriesTotal.inc(status)
}

// writeProm renders every metric. Gauges whose state lives elsewhere
// (admission occupancy, session count, monitor drift) are passed in.
func (m *metrics) writeProm(w io.Writer, gauges map[string]float64) {
	fmt.Fprintf(w, "# HELP flock_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE flock_uptime_seconds gauge\n")
	fmt.Fprintf(w, "flock_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP flock_query_seconds Query latency by statement kind.\n")
	fmt.Fprintf(w, "# TYPE flock_query_seconds histogram\n")
	for _, k := range queryKinds {
		m.queryLatency[k].writeProm(w, "flock_query_seconds", `kind="`+k+`"`)
	}

	fmt.Fprintf(w, "# HELP flock_queries_total Finished queries by terminal status.\n")
	fmt.Fprintf(w, "# TYPE flock_queries_total counter\n")
	statuses := m.queriesTotal.snapshot()
	keys := make([]string, 0, len(statuses))
	for k := range statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "flock_queries_total{status=%q} %d\n", k, statuses[k])
	}

	fmt.Fprintf(w, "# HELP flock_admission_wait_seconds Time queries queued waiting for a worker slot.\n")
	fmt.Fprintf(w, "# TYPE flock_admission_wait_seconds histogram\n")
	m.admissionWait.writeProm(w, "flock_admission_wait_seconds", "")

	fmt.Fprintf(w, "# HELP flock_admission_rejected_total Queries rejected because the wait queue was full.\n")
	fmt.Fprintf(w, "# TYPE flock_admission_rejected_total counter\n")
	fmt.Fprintf(w, "flock_admission_rejected_total %d\n", m.admissionRejected.Load())

	fmt.Fprintf(w, "# HELP flock_cursors_expired_total Server-side cursors reaped by the TTL sweep.\n")
	fmt.Fprintf(w, "# TYPE flock_cursors_expired_total counter\n")
	fmt.Fprintf(w, "flock_cursors_expired_total %d\n", m.cursorsExpired.Load())

	fmt.Fprintf(w, "# HELP flock_plan_cache_events_total Prepared-plan cache hits, misses and evictions.\n")
	fmt.Fprintf(w, "# TYPE flock_plan_cache_events_total counter\n")
	fmt.Fprintf(w, "flock_plan_cache_events_total{event=\"hit\"} %d\n", m.planHits.Load())
	fmt.Fprintf(w, "flock_plan_cache_events_total{event=\"miss\"} %d\n", m.planMisses.Load())
	fmt.Fprintf(w, "flock_plan_cache_events_total{event=\"eviction\"} %d\n", m.planEvictions.Load())

	gk := make([]string, 0, len(gauges))
	for k := range gauges {
		gk = append(gk, k)
	}
	sort.Strings(gk)
	// One TYPE line per metric family: labeled keys of the same name (e.g.
	// flock_monitor_psi{model="a"} and {model="b"}) sort adjacently, so the
	// family header is emitted only when the name changes.
	prevName := ""
	for _, k := range gk {
		if name := metricNameOf(k); name != prevName {
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			prevName = name
		}
		fmt.Fprintf(w, "%s %g\n", k, gauges[k])
	}
}

// metricNameOf strips a label body from a gauge key ("name{...}" -> name).
func metricNameOf(k string) string {
	for i := 0; i < len(k); i++ {
		if k[i] == '{' {
			return k[:i]
		}
	}
	return k
}
