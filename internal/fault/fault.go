// Package fault is the process-wide fault-injection plane: a registry of
// named failpoints that test harnesses (and, via FLOCK_FAULTS, operators
// running chaos drills) arm with probability/count/error/latency triggers,
// and that production code consults at the I/O and RPC boundaries where
// real systems fail — WAL appends and fsyncs, checkpoint renames, snapshot
// writes, remote scorer calls.
//
// The design follows the coverage-guided stance of the network-config
// testing literature: the fault space is enumerated (every failpoint has a
// stable dotted name like "wal.fsync") so a chaos suite can iterate the
// matrix instead of stumbling into failures. When no failpoint is armed the
// hot path is a single atomic load — safe to leave compiled into
// production binaries.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by a triggered failpoint; it
// deliberately reads like an I/O failure so callers exercise their real
// error paths.
var ErrInjected = errors.New("fault: injected failure")

// Spec arms one failpoint. The zero value triggers on every evaluation
// with ErrInjected.
type Spec struct {
	// Err is returned when the failpoint triggers (ErrInjected when nil).
	Err error
	// Prob is the per-evaluation trigger probability; 0 means 1.0
	// (deterministic failure). Values outside (0,1] are clamped.
	Prob float64
	// Count caps the number of triggers; 0 means unlimited. After Count
	// triggers the failpoint stays registered but fires no more.
	Count int
	// After skips the first After evaluations before the failpoint can
	// trigger (deterministically fail "the Nth fsync").
	After int
	// Latency is slept before the failpoint returns, with or without an
	// error — a slow disk or a hung backend rather than a dead one.
	Latency time.Duration
	// Partial marks write failpoints as short writes: the wrapped Write
	// persists roughly half the buffer before reporting the error,
	// producing a torn frame on disk exactly like a crash mid-write.
	Partial bool
}

// outcome is one triggered evaluation.
type outcome struct {
	err     error
	latency time.Duration
	partial bool
}

func (o outcome) fail() error {
	if o.latency > 0 {
		sleep(o.latency)
	}
	return o.err
}

// sleep serves armed latency; tests swap it to assert the requested
// duration instead of timing the wait.
var sleep = time.Sleep

type point struct {
	spec      Spec
	evals     int
	triggered int
}

var (
	// active short-circuits Inject when no failpoint is armed: the
	// production fast path is this one atomic load.
	active atomic.Int32

	mu     sync.Mutex
	points = map[string]*point{}
	rng    = rand.New(rand.NewSource(1)) // deterministic under a fixed seed; reseed via Seed
)

// Seed reseeds the probability source (chaos harnesses log the seed so a
// failing schedule can be replayed).
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Enable arms (or re-arms) the named failpoint.
func Enable(name string, s Spec) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		active.Add(1)
	}
	points[name] = &point{spec: s}
}

// Disable disarms one failpoint.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		active.Add(-1)
	}
}

// Reset disarms every failpoint (test cleanup).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int32(len(points)))
	points = map[string]*point{}
}

// Triggered reports how many times the named failpoint has fired since it
// was armed (assertions that a schedule actually exercised a fault).
func Triggered(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.triggered
	}
	return 0
}

// Armed lists the currently armed failpoint names (exported on /metrics by
// the serving layer so a chaos drill is visible to observability).
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for n := range points {
		out = append(out, n)
	}
	return out
}

// eval decides whether the named failpoint triggers on this evaluation.
func eval(name string) (outcome, bool) {
	if active.Load() == 0 {
		return outcome{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return outcome{}, false
	}
	p.evals++
	if p.evals <= p.spec.After {
		return outcome{}, false
	}
	if p.spec.Count > 0 && p.triggered >= p.spec.Count {
		return outcome{}, false
	}
	prob := p.spec.Prob
	if prob <= 0 || prob > 1 {
		prob = 1
	}
	if prob < 1 && rng.Float64() >= prob {
		return outcome{}, false
	}
	p.triggered++
	err := p.spec.Err
	if err == nil {
		err = ErrInjected
	}
	return outcome{err: err, latency: p.spec.Latency, partial: p.spec.Partial}, true
}

// Inject evaluates the named failpoint: nil when disarmed or not triggered,
// the armed error (after any armed latency) when it fires. This is the
// one-line hook production code places at a fault boundary:
//
//	if err := fault.Inject("scorer.http"); err != nil { return err }
func Inject(name string) error {
	o, ok := eval(name)
	if !ok {
		return nil
	}
	return o.fail()
}

// envVar seeds failpoints from the environment at process start:
//
//	FLOCK_FAULTS="wal.fsync:0.01,scorer.http:0.05:10"
//
// Each comma-separated entry is name[:prob[:count]]. Used by chaos smoke
// jobs to run a real binary under a fault schedule without recompiling.
const envVar = "FLOCK_FAULTS"

func init() {
	if err := FromEnv(); err != nil {
		// A malformed schedule must be loud, not silently ignored: a chaos
		// drill that thinks faults are armed when they are not proves nothing.
		panic(err)
	}
}

// FromEnv arms failpoints from FLOCK_FAULTS (no-op when unset).
func FromEnv() error {
	v := os.Getenv(envVar)
	if v == "" {
		return nil
	}
	for _, entry := range strings.Split(v, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		s := Spec{}
		if len(parts) >= 2 {
			p, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return fmt.Errorf("fault: %s entry %q: bad probability: %w", envVar, entry, err)
			}
			s.Prob = p
		}
		if len(parts) >= 3 {
			c, err := strconv.Atoi(parts[2])
			if err != nil {
				return fmt.Errorf("fault: %s entry %q: bad count: %w", envVar, entry, err)
			}
			s.Count = c
		}
		if len(parts) > 3 {
			return fmt.Errorf("fault: %s entry %q: want name[:prob[:count]]", envVar, entry)
		}
		Enable(parts[0], s)
	}
	return nil
}
