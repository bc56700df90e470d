package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// Options configures the leader side of replication.
type Options struct {
	// Token authenticates followers ("" disables the check).
	Token string
	// Quorum is the number of follower acks a commit must collect before
	// it is acknowledged to the client; 0 (async) never waits.
	Quorum int
	// AckTimeout bounds how long a commit waits for quorum before failing
	// the ack as ambiguous (default 5s).
	AckTimeout time.Duration
	// MaxBatchBytes bounds one shipped batch (default 4 MiB). At least one
	// frame is always shipped regardless.
	MaxBatchBytes int
	// MaxWait caps a follower's long-poll (default 10s).
	MaxWait time.Duration
}

// Leader serves the replication endpoints over a primary database: ships
// WAL frames and the bootstrap snapshot, tracks follower acks, and — under
// the quorum policy — gates commit acknowledgements on those acks via
// engine.SetCommitGate.
type Leader struct {
	db   *engine.DB
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond
	followers map[string]*followerInfo

	shipBatches    atomic.Int64
	shipFrames     atomic.Int64
	shipBytes      atomic.Int64
	shipErrs       atomic.Int64
	shipTorn       atomic.Int64
	snapshots      atomic.Int64
	quorumTimeouts atomic.Int64
}

type followerInfo struct {
	ackLSN   int64
	lastSeen time.Time
}

// NewLeader builds a Leader over db. Install the quorum gate separately
// (db.SetCommitGate(l.Gate)) so callers choose when commits start waiting.
func NewLeader(db *engine.DB, opts Options) *Leader {
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 5 * time.Second
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 4 << 20
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = 10 * time.Second
	}
	l := &Leader{db: db, opts: opts, followers: map[string]*followerInfo{}}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Quorum reports the configured ack quorum (0 = async).
func (l *Leader) Quorum() int { return l.opts.Quorum }

// Gate is the commit gate: it blocks until lsn has been acked by the
// configured quorum of followers, or fails with ErrQuorumTimeout. Wired
// into the engine with db.SetCommitGate(l.Gate); the engine calls it after
// local durability, outside the commit barrier, so a slow follower delays
// client acks — never checkpoints or other committers' fsyncs.
func (l *Leader) Gate(lsn int64) error {
	if l.opts.Quorum <= 0 {
		return nil
	}
	deadline := time.Now().Add(l.opts.AckTimeout)
	timer := time.AfterFunc(l.opts.AckTimeout, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.quorumLSNLocked() < lsn {
		if !time.Now().Before(deadline) {
			l.quorumTimeouts.Add(1)
			return fmt.Errorf("%w: LSN %d acked by %d/%d followers within %v (write is locally durable; ambiguous commit)",
				ErrQuorumTimeout, lsn, l.ackedCountLocked(lsn), l.opts.Quorum, l.opts.AckTimeout)
		}
		l.cond.Wait()
	}
	return nil
}

// quorumLSNLocked is the highest LSN acked by at least Quorum followers:
// the Quorum-th highest follower ack (0 when fewer followers exist).
func (l *Leader) quorumLSNLocked() int64 {
	if len(l.followers) < l.opts.Quorum {
		return 0
	}
	acks := make([]int64, 0, len(l.followers))
	for _, f := range l.followers {
		acks = append(acks, f.ackLSN)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[l.opts.Quorum-1]
}

func (l *Leader) ackedCountLocked(lsn int64) int {
	n := 0
	for _, f := range l.followers {
		if f.ackLSN >= lsn {
			n++
		}
	}
	return n
}

// noteFollower registers or refreshes a follower's liveness.
func (l *Leader) noteFollower(id string) {
	if id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.followers[id]
	if !ok {
		f = &followerInfo{}
		l.followers[id] = f
	}
	f.lastSeen = time.Now()
}

// recordAck advances a follower's acked LSN and wakes quorum waiters.
func (l *Leader) recordAck(id string, lsn int64) {
	if id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.followers[id]
	if !ok {
		f = &followerInfo{}
		l.followers[id] = f
	}
	f.lastSeen = time.Now()
	if lsn > f.ackLSN {
		f.ackLSN = lsn
		l.cond.Broadcast()
	}
}

type walRequest struct {
	FromLSN  int64  `json:"from_lsn"`
	MaxBytes int    `json:"max_bytes"`
	WaitMS   int64  `json:"wait_ms"`
	Follower string `json:"follower"`
	// Epoch is the follower's leadership epoch (0 from pre-epoch
	// followers). A higher epoch than the leader's own fences the leader.
	Epoch int64 `json:"epoch"`
}

// fenceOnHigherEpoch deposes this leader when a request carries a higher
// epoch than its own, and reports (with a 503 written) whether the node is
// fenced — deposed leaders must neither ship frames, serve bootstrap
// images, nor record acks: any of those could resurrect acked-nowhere
// history or count a stale generation toward quorum.
func (l *Leader) fenceOnHigherEpoch(w http.ResponseWriter, remoteEpoch int64, source string) (fenced bool) {
	if remoteEpoch > l.db.Epoch() {
		_ = fault.Inject(FaultFence) // arm with latency to widen fence races in chaos schedules
		l.db.Fence(remoteEpoch, source)
	}
	down, observed, via := l.db.Fenced()
	if !down {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": fmt.Sprintf("repl: fenced: this node was deposed by epoch %d (observed via %s); repoint to the new leader", observed, via),
		"epoch": l.db.Epoch(),
	})
	return true
}

// HandleWAL serves one shipped batch: frames in (from_lsn, durable],
// long-polling while the follower is caught up. The scan buffers frames
// under the engine's checkpoint lock (ReadWALSince's no-blocking contract)
// and transmits afterwards, so a slow follower connection never stalls
// checkpoints.
func (l *Leader) HandleWAL(w http.ResponseWriter, r *http.Request) {
	if !tokenOK(l.opts.Token, r) {
		replError(w, http.StatusUnauthorized, errors.New("repl: bad replication token"))
		return
	}
	var req walRequest
	if !decodeBody(w, r, &req, "wal request") {
		return
	}
	l.noteFollower(req.Follower)
	// Epoch gate before any LSN work. A higher-epoch requester deposes this
	// leader; a fenced leader's tail past the fold point is acked-nowhere
	// history and must never ship.
	if l.fenceOnHigherEpoch(w, req.Epoch, fmt.Sprintf("ship request from follower %q", req.Follower)) {
		return
	}
	if epoch := l.db.Epoch(); req.Epoch != 0 && req.Epoch < epoch && req.FromLSN > l.db.EpochStart() {
		// The requester's log extends past the promotion fold point under a
		// superseded epoch: that tail was acked nowhere. Route it through a
		// snapshot bootstrap, which discards the divergent frames.
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("repl: diverged: follower %q at LSN %d under stale epoch %d (epoch %d began after LSN %d); re-bootstrap from the snapshot",
				req.Follower, req.FromLSN, req.Epoch, epoch, l.db.EpochStart()),
			"snapshot_lsn": l.db.SnapshotLSN(),
			"diverged":     true,
		})
		return
	}
	maxBytes := req.MaxBytes
	if maxBytes <= 0 || maxBytes > l.opts.MaxBatchBytes {
		maxBytes = l.opts.MaxBatchBytes
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > l.opts.MaxWait {
		wait = l.opts.MaxWait
	}

	var buf bytes.Buffer
	frames := 0
	deadline := time.Now().Add(wait)
	var last, durable int64
	for {
		buf.Reset()
		frames = 0
		var err error
		last, durable, err = l.db.ReadWALSince(req.FromLSN, maxBytes, func(lsn int64, payload []byte) error {
			frames++
			return engine.AppendFrame(&buf, payload)
		})
		if errors.Is(err, engine.ErrWALTruncated) {
			// The follower's position was folded into the snapshot; it must
			// bootstrap. 409 carries the snapshot LSN so the follower can
			// sanity-check the image it fetches next.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":        err.Error(),
				"snapshot_lsn": l.db.SnapshotLSN(),
			})
			return
		}
		if err != nil {
			l.shipErrs.Add(1)
			replError(w, http.StatusInternalServerError, err)
			return
		}
		if frames > 0 || !time.Now().Before(deadline) {
			break
		}
		// Caught up: wait for the durable watermark to move past the one
		// the read saw. A commit that became durable between the read and
		// the watch closed no channel anyone held, so re-read instead of
		// waiting for the next advance. If the append position is ahead of
		// the watermark (trailing query-log frames never force an fsync of
		// their own), nudge them to disk so the follower converges on the
		// full LSN sequence instead of stalling one fsync behind.
		_ = fault.Inject(FaultShipWatch) // arm with latency to widen the read-to-watch window
		cur, ch := l.db.WatchDurable()
		if cur > durable {
			continue
		}
		if tip := l.db.LastLSN(); tip > cur {
			if serr := l.db.SyncWALTo(tip); serr == nil {
				continue
			}
		}
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
		case <-r.Context().Done():
			return
		}
	}

	body := buf.Bytes()
	torn := false
	if len(body) > 0 {
		if ferr := fault.Inject(FaultShip); ferr != nil {
			// Chaos: tear the batch mid-frame, as if the connection died
			// mid-transfer. The follower applies the intact prefix and
			// resumes from its own applied LSN.
			body = body[:len(body)/2+1]
			torn = true
			l.shipTorn.Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderLastLSN, fmt.Sprint(last))
	w.Header().Set(HeaderDurableLSN, fmt.Sprint(durable))
	w.Header().Set(HeaderEpoch, fmt.Sprint(l.db.Epoch()))
	if _, err := w.Write(body); err != nil {
		l.shipErrs.Add(1)
		return
	}
	l.shipBatches.Add(1)
	if !torn {
		l.shipFrames.Add(int64(frames))
	}
	l.shipBytes.Add(int64(len(body)))
}

// HandleSnapshot ships the bootstrap image: the leader's on-disk
// checkpoint snapshot, buffered under the checkpoint lock so a concurrent
// checkpoint cannot swap the file mid-read.
func (l *Leader) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !tokenOK(l.opts.Token, r) {
		replError(w, http.StatusUnauthorized, errors.New("repl: bad replication token"))
		return
	}
	var req struct {
		Follower string `json:"follower"`
	}
	if !decodeBody(w, r, &req, "snapshot request") {
		return
	}
	l.noteFollower(req.Follower)
	// A fenced leader's checkpoint may already have folded divergent tail
	// frames; bootstrapping a follower from it would spread them.
	if l.fenceOnHigherEpoch(w, 0, "") {
		return
	}
	blob, lsn, err := l.db.SnapshotForShip()
	if err != nil {
		// No checkpoint has run yet: the whole history is still in the log
		// and the follower replicates from LSN 0 instead.
		replError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderSnapLSN, fmt.Sprint(lsn))
	w.Header().Set(HeaderEpoch, fmt.Sprint(l.db.Epoch()))
	if _, err := w.Write(blob); err != nil {
		return
	}
	l.snapshots.Add(1)
}

// HandleAck records a follower's applied LSN (the quorum feed and the lag
// gauge source).
func (l *Leader) HandleAck(w http.ResponseWriter, r *http.Request) {
	if !tokenOK(l.opts.Token, r) {
		replError(w, http.StatusUnauthorized, errors.New("repl: bad replication token"))
		return
	}
	var req struct {
		Follower   string `json:"follower"`
		AppliedLSN int64  `json:"applied_lsn"`
		Epoch      int64  `json:"epoch"`
	}
	if !decodeBody(w, r, &req, "ack") {
		return
	}
	if req.Follower == "" {
		replError(w, http.StatusBadRequest, errors.New("repl: ack requires a follower id"))
		return
	}
	// Epoch check before the ack LSN is recorded: an ack from a higher
	// epoch fences this leader, and a stale-epoch ack must never count
	// toward quorum (it acknowledges a superseded lineage's frames).
	if l.fenceOnHigherEpoch(w, req.Epoch, fmt.Sprintf("ack from follower %q", req.Follower)) {
		return
	}
	if epoch := l.db.Epoch(); req.Epoch != 0 && req.Epoch < epoch {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("repl: stale epoch ack from follower %q (epoch %d, current %d); not counted toward quorum",
				req.Follower, req.Epoch, epoch),
			"epoch": epoch,
		})
		return
	}
	l.recordAck(req.Follower, req.AppliedLSN)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// FollowerStatus is one follower's view in the leader status report.
type FollowerStatus struct {
	ID         string `json:"id"`
	AckLSN     int64  `json:"ack_lsn"`
	LagFrames  int64  `json:"lag_frames"`
	LastSeenMS int64  `json:"last_seen_ms"`
}

// Status is the leader's replication status report (GET /v1/repl/status).
type Status struct {
	Role       string           `json:"role"` // "leader" or "fenced"
	Epoch      int64            `json:"epoch"`
	EpochStart int64            `json:"epoch_start"`
	LastLSN    int64            `json:"last_lsn"`
	DurableLSN int64            `json:"durable_lsn"`
	Horizon    int64            `json:"horizon"`
	AckPolicy  string           `json:"ack_policy"`
	Quorum     int              `json:"quorum,omitempty"`
	QuorumLSN  int64            `json:"quorum_lsn,omitempty"`
	Followers  []FollowerStatus `json:"followers"`
}

// CurrentStatus snapshots the leader's replication state.
func (l *Leader) CurrentStatus() Status {
	st := Status{
		Role:       "leader",
		Epoch:      l.db.Epoch(),
		EpochStart: l.db.EpochStart(),
		LastLSN:    l.db.LastLSN(),
		DurableLSN: l.db.DurableLSN(),
		Horizon:    l.db.WALHorizon(),
		AckPolicy:  "async",
	}
	if down, _, _ := l.db.Fenced(); down {
		st.Role = "fenced"
	}
	if l.opts.Quorum > 0 {
		st.AckPolicy = "quorum"
		st.Quorum = l.opts.Quorum
	}
	now := time.Now()
	l.mu.Lock()
	st.QuorumLSN = 0
	if l.opts.Quorum > 0 {
		st.QuorumLSN = l.quorumLSNLocked()
	}
	for id, f := range l.followers {
		st.Followers = append(st.Followers, FollowerStatus{
			ID:         id,
			AckLSN:     f.ackLSN,
			LagFrames:  st.DurableLSN - f.ackLSN,
			LastSeenMS: now.Sub(f.lastSeen).Milliseconds(),
		})
	}
	l.mu.Unlock()
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].ID < st.Followers[j].ID })
	return st
}

// HandleStatus serves the leader replication status as JSON.
func (l *Leader) HandleStatus(w http.ResponseWriter, r *http.Request) {
	if !tokenOK(l.opts.Token, r) {
		replError(w, http.StatusUnauthorized, errors.New("repl: bad replication token"))
		return
	}
	writeJSON(w, http.StatusOK, l.CurrentStatus())
}

// Gauges exports the leader-side replication metrics for /metrics.
func (l *Leader) Gauges() map[string]float64 {
	st := l.CurrentStatus()
	role := 1.0 // 1 = leader, 0 = replica, -1 = fenced
	if st.Role == "fenced" {
		role = -1
	}
	g := map[string]float64{
		"flock_repl_epoch":                   float64(st.Epoch),
		"flock_repl_role":                    role,
		"flock_repl_followers":               float64(len(st.Followers)),
		"flock_repl_quorum":                  float64(l.opts.Quorum),
		"flock_repl_quorum_lsn":              float64(st.QuorumLSN),
		"flock_repl_ship_batches_total":      float64(l.shipBatches.Load()),
		"flock_repl_ship_frames_total":       float64(l.shipFrames.Load()),
		"flock_repl_ship_bytes_total":        float64(l.shipBytes.Load()),
		"flock_repl_ship_errors_total":       float64(l.shipErrs.Load()),
		"flock_repl_ship_torn_total":         float64(l.shipTorn.Load()),
		"flock_repl_snapshots_total":         float64(l.snapshots.Load()),
		"flock_repl_quorum_timeouts_total":   float64(l.quorumTimeouts.Load()),
		"flock_repl_commit_gate_waits_total": float64(engine.CommitGateWaits()),
	}
	for _, f := range st.Followers {
		g[fmt.Sprintf(`flock_repl_ack_lsn{follower=%q}`, f.ID)] = float64(f.AckLSN)
		g[fmt.Sprintf(`flock_repl_follower_lag_frames{follower=%q}`, f.ID)] = float64(f.LagFrames)
	}
	return g
}

// register mounts the replication endpoints on mux.
func (l *Leader) register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathWAL, l.HandleWAL)
	mux.HandleFunc("POST "+PathSnapshot, l.HandleSnapshot)
	mux.HandleFunc("POST "+PathAck, l.HandleAck)
	mux.HandleFunc("GET "+PathStatus, l.HandleStatus)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func replError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a replication request body; every one is a small JSON
// object.
const maxBodyBytes = 1 << 20

// decodeBody reads r's JSON body into v, never more than maxBodyBytes of
// it. On failure it has answered: 413 past the cap, else 400 naming what.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		replError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("repl: %s body exceeds %d bytes", what, tooLarge.Limit))
	default:
		replError(w, http.StatusBadRequest, fmt.Errorf("repl: bad %s: %w", what, err))
	}
	return false
}
