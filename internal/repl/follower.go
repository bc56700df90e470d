package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// FollowerOptions configures a replication follower.
type FollowerOptions struct {
	// ID names this follower in acks and leader status (default "replica").
	ID string
	// Token authenticates against the leader ("" when the leader runs
	// open).
	Token string
	// MaxBatchBytes asks the leader to bound each shipped batch (0 lets
	// the leader choose).
	MaxBatchBytes int
	// PollWait is the long-poll wait requested from the leader when caught
	// up (default 5s).
	PollWait time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff (defaults
	// 100ms/3s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Client is the HTTP client used against the leader (default: a client
	// with a 30s timeout, comfortably above PollWait).
	Client *http.Client
	// OnApplied, when set, runs after each applied-and-synced batch and
	// after a snapshot bootstrap — the hook the serving layer uses to
	// refresh derived state (e.g. reload persisted models).
	OnApplied func()
}

// Follower replicates a read-only database from a leader: long-polls
// shipped WAL batches, applies them through the engine's replay
// primitives, makes each batch durable with one fsync, and acks its
// applied LSN back. On stream interruption it reconnects with exponential
// backoff and resumes from its own applied LSN; when its position has
// fallen behind the leader's checkpoint horizon it bootstraps from the
// leader snapshot.
type Follower struct {
	db   *engine.DB
	opts FollowerOptions

	leaderMu sync.Mutex
	leader   string

	connected     atomic.Bool
	leaderLast    atomic.Int64
	leaderDurable atomic.Int64
	framesApplied atomic.Int64
	batches       atomic.Int64
	reconnects    atomic.Int64
	bootstraps    atomic.Int64
	acksSent      atomic.Int64

	errMu   sync.Mutex
	lastErr string
}

// NewFollower builds a follower replicating db from the leader base URL
// (e.g. "http://leader:8080"). The db must already be in replica mode
// (engine.SetReplicaMode).
func NewFollower(db *engine.DB, leaderURL string, opts FollowerOptions) *Follower {
	if opts.ID == "" {
		opts.ID = "replica"
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 5 * time.Second
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 3 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Follower{db: db, leader: strings.TrimRight(leaderURL, "/"), opts: opts}
}

// Leader reports the base URL this follower currently tails.
func (f *Follower) Leader() string {
	f.leaderMu.Lock()
	defer f.leaderMu.Unlock()
	return f.leader
}

// SetLeader re-points the follower at a new leader base URL; the next
// replication round tails it. The engine-side divergence handling ((epoch,
// LSN) comparison on the new leader, 409 → bootstrap) makes the switch safe
// mid-stream.
func (f *Follower) SetLeader(url string) {
	f.leaderMu.Lock()
	defer f.leaderMu.Unlock()
	f.leader = strings.TrimRight(url, "/")
}

// Run replicates until ctx is canceled, reconnecting on every failure.
// It only returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opts.MinBackoff
	for {
		if err := ctx.Err(); err != nil {
			f.connected.Store(false)
			return err
		}
		err := f.SyncOnce(ctx)
		if err != nil {
			if ctx.Err() != nil {
				f.connected.Store(false)
				return ctx.Err()
			}
			f.connected.Store(false)
			f.reconnects.Add(1)
			f.setErr(err)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
			if backoff > f.opts.MaxBackoff {
				backoff = f.opts.MaxBackoff
			}
			continue
		}
		f.connected.Store(true)
		f.setErr(nil)
		backoff = f.opts.MinBackoff
	}
}

// SyncOnce performs one replication round: request a batch from the local
// applied LSN (long-polling when caught up), apply every intact frame,
// fsync once, run OnApplied, and ack. A 409 from the leader triggers a
// snapshot bootstrap instead. Exported so tests and one-shot tools can
// drive replication without the Run loop.
func (f *Follower) SyncOnce(ctx context.Context) error {
	from := f.db.AppliedLSN()
	reqBody, _ := json.Marshal(walRequest{
		FromLSN:  from,
		MaxBytes: f.opts.MaxBatchBytes,
		WaitMS:   f.opts.PollWait.Milliseconds(),
		Follower: f.opts.ID,
		Epoch:    f.db.Epoch(),
	})
	resp, err := f.post(ctx, PathWAL, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to apply
	case http.StatusConflict:
		// Our position predates the leader's retention horizon (the frames
		// we need were folded into the snapshot), or our tail diverged from
		// the leader's lineage. Rebase onto the snapshot in both cases.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return f.bootstrap(ctx)
	default:
		return fmt.Errorf("repl: leader %s: %s", PathWAL, readWireError(resp))
	}
	// Epoch gate before any frame is applied: a response stamped with a
	// lower epoch than ours comes from a deposed leader, and applying its
	// frames would graft a superseded lineage onto this log.
	if respEpoch, perr := strconv.ParseInt(resp.Header.Get(HeaderEpoch), 10, 64); perr == nil &&
		respEpoch != 0 && respEpoch < f.db.Epoch() {
		return fmt.Errorf("%w: leader at epoch %d, local epoch %d", ErrStaleLeader, respEpoch, f.db.Epoch())
	}
	if v, err := strconv.ParseInt(resp.Header.Get(HeaderLastLSN), 10, 64); err == nil {
		f.leaderLast.Store(v)
	}
	if v, err := strconv.ParseInt(resp.Header.Get(HeaderDurableLSN), 10, 64); err == nil {
		f.leaderDurable.Store(v)
	}

	applied := from
	torn, applyErr := engine.ReadFrames(resp.Body, func(payload []byte) error {
		if ferr := fault.Inject(FaultStream); ferr != nil {
			return fmt.Errorf("repl: stream dropped: %w", ferr)
		}
		lsn, aerr := f.db.ApplyReplicated(payload)
		if aerr != nil {
			return aerr
		}
		if lsn > applied {
			applied = lsn
		}
		f.framesApplied.Add(1)
		return nil
	})
	// A torn tail (the batch was cut mid-frame) is not an error: the
	// intact prefix applied, and the next round resumes past it.
	_ = torn

	if applied > from {
		// One fsync per shipped batch — the follower's group commit.
		if serr := f.db.SyncWALTo(applied); serr != nil {
			return serr
		}
		if f.opts.OnApplied != nil {
			f.opts.OnApplied()
		}
		f.batches.Add(1)
	}
	// Ack whatever is applied, even when the stream died mid-batch: the
	// prefix is durable and counts toward quorum.
	if ackErr := f.ack(ctx, applied); ackErr != nil && applyErr == nil {
		return ackErr
	}
	return applyErr
}

// bootstrap rebases the replica onto the leader's checkpoint snapshot.
func (f *Follower) bootstrap(ctx context.Context) error {
	reqBody, _ := json.Marshal(map[string]string{"follower": f.opts.ID})
	resp, err := f.post(ctx, PathSnapshot, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: leader %s: %s", PathSnapshot, readWireError(resp))
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: snapshot read: %w", err)
	}
	// Epoch gate before the image is installed: never rebase onto a deposed
	// leader's snapshot.
	if respEpoch, perr := strconv.ParseInt(resp.Header.Get(HeaderEpoch), 10, 64); perr == nil &&
		respEpoch != 0 && respEpoch < f.db.Epoch() {
		return fmt.Errorf("%w: snapshot from epoch %d, local epoch %d", ErrStaleLeader, respEpoch, f.db.Epoch())
	}
	if err := f.db.BootstrapReplica(blob); err != nil {
		return err
	}
	f.bootstraps.Add(1)
	if want, err := strconv.ParseInt(resp.Header.Get(HeaderSnapLSN), 10, 64); err == nil && want != f.db.AppliedLSN() {
		return fmt.Errorf("repl: bootstrap landed at LSN %d, leader advertised %d", f.db.AppliedLSN(), want)
	}
	if f.opts.OnApplied != nil {
		f.opts.OnApplied()
	}
	return f.ack(ctx, f.db.AppliedLSN())
}

// ack reports the applied LSN to the leader (feeds quorum and lag).
func (f *Follower) ack(ctx context.Context, lsn int64) error {
	reqBody, _ := json.Marshal(map[string]any{"follower": f.opts.ID, "applied_lsn": lsn, "epoch": f.db.Epoch()})
	resp, err := f.post(ctx, PathAck, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: leader %s: %s", PathAck, readWireError(resp))
	}
	f.acksSent.Add(1)
	return nil
}

func (f *Follower) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.Leader()+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if f.opts.Token != "" {
		req.Header.Set(HeaderToken, f.opts.Token)
	}
	return f.opts.Client.Do(req)
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if err == nil {
		f.lastErr = ""
		return
	}
	f.lastErr = err.Error()
}

// LastError reports the most recent replication error ("" when healthy).
func (f *Follower) LastError() string {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.lastErr
}

// Connected reports whether the last replication round succeeded.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Lag reports how many frames the replica trails the leader's durable
// watermark, as of the last contact. Negative values clamp to 0 (the
// leader header can be a round stale).
func (f *Follower) Lag() int64 {
	lag := f.leaderDurable.Load() - f.db.AppliedLSN()
	if lag < 0 {
		lag = 0
	}
	return lag
}

// ReplicaStatus is the follower's status report (exposed by the serving
// layer on /v1/repl/status in replica mode).
type ReplicaStatus struct {
	Role          string `json:"role"` // always "replica"
	Epoch         int64  `json:"epoch"`
	Leader        string `json:"leader"`
	ID            string `json:"id"`
	Connected     bool   `json:"connected"`
	AppliedLSN    int64  `json:"applied_lsn"`
	LeaderLastLSN int64  `json:"leader_last_lsn"`
	LagFrames     int64  `json:"lag_frames"`
	Bootstraps    int64  `json:"bootstraps"`
	Reconnects    int64  `json:"reconnects"`
	LastError     string `json:"last_error,omitempty"`
}

// CurrentStatus snapshots the follower's replication state.
func (f *Follower) CurrentStatus() ReplicaStatus {
	return ReplicaStatus{
		Role:          "replica",
		Epoch:         f.db.Epoch(),
		Leader:        f.Leader(),
		ID:            f.opts.ID,
		Connected:     f.connected.Load(),
		AppliedLSN:    f.db.AppliedLSN(),
		LeaderLastLSN: f.leaderLast.Load(),
		LagFrames:     f.Lag(),
		Bootstraps:    f.bootstraps.Load(),
		Reconnects:    f.reconnects.Load(),
		LastError:     f.LastError(),
	}
}

// Gauges exports the follower-side replication metrics for /metrics.
func (f *Follower) Gauges() map[string]float64 {
	connected := 0.0
	if f.connected.Load() {
		connected = 1
	}
	return map[string]float64{
		"flock_repl_epoch":                float64(f.db.Epoch()),
		"flock_repl_role":                 0, // 1 = leader, 0 = replica, -1 = fenced
		"flock_repl_apply_lsn":            float64(f.db.AppliedLSN()),
		"flock_repl_connected":            connected,
		"flock_repl_lag_frames":           float64(f.Lag()),
		"flock_repl_frames_applied_total": float64(f.framesApplied.Load()),
		"flock_repl_batches_total":        float64(f.batches.Load()),
		"flock_repl_reconnects_total":     float64(f.reconnects.Load()),
		"flock_repl_bootstraps_total":     float64(f.bootstraps.Load()),
		"flock_repl_acks_sent_total":      float64(f.acksSent.Load()),
	}
}

// readWireError extracts {"error": ...} from an error response, falling
// back to the HTTP status.
func readWireError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return errors.New(resp.Status).Error()
}
