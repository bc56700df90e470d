package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
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

func execOK(t *testing.T, db *engine.DB, q string) *engine.Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// newLeaderNode opens a leader DB in its own dir and serves its replication
// endpoints from an httptest server.
func newLeaderNode(t *testing.T, opts Options) (*engine.DB, *Leader, *httptest.Server) {
	t.Helper()
	db, _, err := engine.OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseDurability() })
	l := NewLeader(db, opts)
	mux := http.NewServeMux()
	l.register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return db, l, srv
}

// newReplicaNode opens a replica-mode DB in dir (fresh when "").
func newReplicaNode(t *testing.T, dir, leaderURL string) *engine.DB {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	db, _, err := engine.OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseDurability() })
	db.SetReplicaMode(leaderURL)
	return db
}

// syncUntilCaughtUp drives SyncOnce until the replica reaches the leader's
// durable watermark (tolerating transient fault-injected rounds).
func syncUntilCaughtUp(t *testing.T, f *Follower, leader *engine.DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		lastErr = f.SyncOnce(context.Background())
		if f.db.AppliedLSN() >= leader.DurableLSN() && lastErr == nil {
			return
		}
	}
	t.Fatalf("replica never caught up: applied %d, leader durable %d, last err %v",
		f.db.AppliedLSN(), leader.DurableLSN(), lastErr)
}

// assertSameContents compares query results between leader and replica.
func assertSameContents(t *testing.T, leader, replica *engine.DB, queries ...string) {
	t.Helper()
	for _, q := range queries {
		lr := execOK(t, leader, q)
		rr := execOK(t, replica, q)
		if fmt.Sprint(boxed(lr)) != fmt.Sprint(boxed(rr)) {
			t.Fatalf("%s diverged:\n leader  %v\n replica %v", q, boxed(lr), boxed(rr))
		}
	}
}

// assertSameFrames compares the two logs frame-for-frame from the higher of
// the two horizons up to the replica's applied LSN, the one stable
// comparison point while the leader keeps committing.
func assertSameFrames(t *testing.T, leader, replica *engine.DB) {
	t.Helper()
	from := leader.WALHorizon()
	if h := replica.WALHorizon(); h > from {
		from = h
	}
	upto := replica.AppliedLSN()
	collect := func(db *engine.DB) map[int64][]byte {
		out := map[int64][]byte{}
		cur := from
		for {
			last, durable, err := db.ReadWALSince(cur, 1<<30, func(lsn int64, p []byte) error {
				if lsn <= upto {
					out[lsn] = append([]byte(nil), p...)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if last >= durable || last >= upto {
				return out
			}
			cur = last
		}
	}
	lf, rf := collect(leader), collect(replica)
	if len(lf) != len(rf) {
		t.Fatalf("frame count diverged: leader %d, replica %d (from %d)", len(lf), len(rf), from)
	}
	for lsn, p := range lf {
		if !bytes.Equal(p, rf[lsn]) {
			t.Fatalf("frame %d differs between leader and replica", lsn)
		}
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	ldb, l, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int, v int)")
	for i := 0; i < 25; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*3))
	}
	rdb := newReplicaNode(t, "", srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "r1", PollWait: 50 * time.Millisecond})
	syncUntilCaughtUp(t, f, ldb)
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(v) FROM kv")
	assertSameFrames(t, ldb, rdb)

	// New writes after the initial catch-up ship incrementally.
	execOK(t, ldb, "UPDATE kv SET v = v + 1 WHERE id < 10")
	execOK(t, ldb, "DELETE FROM kv WHERE id = 24")
	syncUntilCaughtUp(t, f, ldb)
	durableAtSync := ldb.DurableLSN()

	// The leader saw the follower and its ack. (Compare against the
	// watermark captured at sync time.)
	st := l.CurrentStatus()
	if len(st.Followers) != 1 || st.Followers[0].ID != "r1" {
		t.Fatalf("leader followers: %+v", st.Followers)
	}
	if st.Followers[0].AckLSN < durableAtSync {
		t.Fatalf("follower ack %d, leader durable at sync %d", st.Followers[0].AckLSN, durableAtSync)
	}
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(v) FROM kv")
	// Writes on the replica are rejected.
	if _, err := rdb.Exec("INSERT INTO kv VALUES (999, 0)"); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("replica write: got %v, want ErrReadOnly", err)
	}
}

func TestReplicationTokenAuth(t *testing.T) {
	ldb, _, srv := newLeaderNode(t, Options{Token: "s3cret"})
	execOK(t, ldb, "CREATE TABLE kv (id int)")

	bad := NewFollower(newReplicaNode(t, "", srv.URL), srv.URL, FollowerOptions{ID: "bad", PollWait: time.Millisecond})
	if err := bad.SyncOnce(context.Background()); err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("tokenless sync: got %v, want auth failure", err)
	}
	good := NewFollower(newReplicaNode(t, "", srv.URL), srv.URL, FollowerOptions{ID: "good", Token: "s3cret", PollWait: time.Millisecond})
	if err := good.SyncOnce(context.Background()); err != nil {
		t.Fatalf("authed sync: %v", err)
	}
}

// TestReplicationResumeAfterTornShip tears a shipped batch mid-frame on the
// leader side (the wire analogue of a torn WAL tail): the follower applies
// the intact prefix and the next round resumes from its applied LSN; the
// final state matches frame-for-frame.
func TestReplicationResumeAfterTornShip(t *testing.T) {
	defer fault.Reset()
	ldb, l, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	for i := 0; i < 30; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	fault.Enable(FaultShip, fault.Spec{Count: 1})
	rdb := newReplicaNode(t, "", srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "torn", PollWait: 10 * time.Millisecond})
	syncUntilCaughtUp(t, f, ldb)

	if fault.Triggered(FaultShip) != 1 {
		t.Fatalf("ship failpoint fired %d times, want 1", fault.Triggered(FaultShip))
	}
	if got := l.Gauges()["flock_repl_ship_torn_total"]; got != 1 {
		t.Fatalf("torn batches gauge %v, want 1", got)
	}
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
	assertSameFrames(t, ldb, rdb)
}

// TestReplicationReconnectAfterStreamDrop kills the apply stream mid-batch
// on the follower side: the round fails, the durable prefix is still acked,
// and the next round resumes from the applied LSN without gaps or
// duplicates.
func TestReplicationReconnectAfterStreamDrop(t *testing.T) {
	defer fault.Reset()
	ldb, _, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	for i := 0; i < 30; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	fault.Enable(FaultStream, fault.Spec{After: 5, Count: 1})
	rdb := newReplicaNode(t, "", srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "drop", PollWait: 10 * time.Millisecond})

	err := f.SyncOnce(context.Background())
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first sync: got %v, want injected stream drop", err)
	}
	prefix := rdb.AppliedLSN()
	if prefix == 0 {
		t.Fatal("no prefix applied before the drop")
	}
	syncUntilCaughtUp(t, f, ldb)
	if rdb.AppliedLSN() <= prefix {
		t.Fatalf("resume did not advance past prefix %d", prefix)
	}
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
	assertSameFrames(t, ldb, rdb)
}

// TestReplicationSnapshotBootstrap starts a replica after the leader has
// checkpointed away the log prefix (two checkpoints: the first keeps its
// interval of log): the 409 from /v1/repl/wal routes the follower through
// the snapshot bootstrap, then shipping continues.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	ldb, l, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	for i := 0; i < 12; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	for round := 0; round < 2; round++ {
		if err := ldb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 12; i < 18; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	rdb := newReplicaNode(t, "", srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "boot", PollWait: 10 * time.Millisecond})
	syncUntilCaughtUp(t, f, ldb)
	if got := f.Gauges()["flock_repl_bootstraps_total"]; got != 1 {
		t.Fatalf("bootstraps gauge %v, want 1", got)
	}
	if got := l.Gauges()["flock_repl_snapshots_total"]; got != 1 {
		t.Fatalf("leader snapshots gauge %v, want 1", got)
	}
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
}

// TestFollowerLagAcrossCheckpoints pins the retention contract end to end:
// a checkpoint keeps one interval of log, so a follower that lags across
// one checkpoint catches up from the log without a bootstrap, and only a
// follower that lags across two bootstraps.
func TestFollowerLagAcrossCheckpoints(t *testing.T) {
	ldb, l, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	next := 0
	insert := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", next))
			next++
		}
	}
	checkpoint := func() {
		t.Helper()
		if err := ldb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	bootstraps := func(f *Follower, want float64) {
		t.Helper()
		if got := f.Gauges()["flock_repl_bootstraps_total"]; got != want {
			t.Fatalf("follower %s: flock_repl_bootstraps_total %v, want %v", f.opts.ID, got, want)
		}
	}

	// A fresh follower after one checkpoint still starts from LSN 0.
	insert(10)
	checkpoint()
	rdb := newReplicaNode(t, "", srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "lag", PollWait: 10 * time.Millisecond})
	syncUntilCaughtUp(t, f, ldb)
	bootstraps(f, 0)

	// Lagging across one checkpoint: the frames it missed are still in the
	// log, past a non-trivial horizon.
	insert(10)
	checkpoint()
	insert(10)
	if h := ldb.WALHorizon(); h == 0 || h > rdb.AppliedLSN() {
		t.Fatalf("horizon %d, follower at %d: want 0 < horizon <= follower", h, rdb.AppliedLSN())
	}
	syncUntilCaughtUp(t, f, ldb)
	bootstraps(f, 0)
	if got := l.Gauges()["flock_repl_snapshots_total"]; got != 0 {
		t.Fatalf("leader shipped %v snapshots to a follower one checkpoint behind", got)
	}
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
	assertSameFrames(t, ldb, rdb)

	// Lagging across two checkpoints: its frames left the log.
	insert(10)
	checkpoint()
	insert(10)
	checkpoint()
	insert(10)
	if h := ldb.WALHorizon(); h <= rdb.AppliedLSN() {
		t.Fatalf("horizon %d, follower at %d: want the follower behind the horizon", h, rdb.AppliedLSN())
	}
	syncUntilCaughtUp(t, f, ldb)
	bootstraps(f, 1)
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
	assertSameFrames(t, ldb, rdb)
}

// TestShipWakesOnCommitBetweenReadAndWatch pins the long poll's wakeup
// order: a commit that becomes durable after a caught-up ship read found no
// frames, but before the handler took its durable-watermark watch, must
// ship at once, not after the next commit or the whole wait_ms.
func TestShipWakesOnCommitBetweenReadAndWatch(t *testing.T) {
	defer fault.Reset()
	ldb, _, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	from := ldb.DurableLSN()

	// Hold the read-to-watch window open and commit inside it.
	fault.Enable(FaultShipWatch, fault.Spec{Latency: 300 * time.Millisecond, Count: 1})
	committed := make(chan error, 1)
	go func() {
		for give := time.Now().Add(5 * time.Second); fault.Triggered(FaultShipWatch) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(give) {
				committed <- errors.New("the ship handler never reached its watch")
				return
			}
		}
		_, err := ldb.Exec("INSERT INTO kv VALUES (1)")
		committed <- err
	}()

	const wait = 10 * time.Second
	body, _ := json.Marshal(walRequest{FromLSN: from, WaitMS: wait.Milliseconds(), Follower: "w"})
	start := time.Now()
	resp, err := http.Post(srv.URL+PathWAL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := 0
	if _, err := engine.ReadFrames(resp.Body, func([]byte) error { frames++; return nil }); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || frames == 0 {
		t.Fatalf("ship answered %d with %d frames, want 200 with the commit's frames", resp.StatusCode, frames)
	}
	if elapsed > wait/2 {
		t.Fatalf("the commit shipped after %v: the handler waited out the long poll", elapsed)
	}
}

// TestQuorumGate wires the leader's gate into the engine commit path: with
// quorum=1 and no follower, writes fail ambiguous after the ack timeout
// (but stay locally durable); with a live follower, writes block until the
// ack arrives and then succeed.
func TestQuorumGate(t *testing.T) {
	ldb, l, srv := newLeaderNode(t, Options{Quorum: 1, AckTimeout: 200 * time.Millisecond})
	execOK(t, ldb, "CREATE TABLE kv (id int)") // before the gate: no follower yet
	ldb.SetCommitGate(l.Gate)

	_, err := ldb.Exec("INSERT INTO kv VALUES (1)")
	if !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("no-follower insert: got %v, want ErrQuorumTimeout", err)
	}
	// The ambiguous write is locally durable: it ships once a follower
	// appears, exactly like a client retry would observe.
	rdb := newReplicaNode(t, "", srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "q1", PollWait: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// With the follower tailing, a gated write completes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err = ldb.Exec("INSERT INTO kv VALUES (2)")
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQuorumTimeout) || !time.Now().Before(deadline) {
			t.Fatalf("gated insert with live follower: %v", err)
		}
	}
	st := l.CurrentStatus()
	if st.AckPolicy != "quorum" || st.QuorumLSN < ldb.DurableLSN() {
		t.Fatalf("status after quorum commit: %+v (durable %d)", st, ldb.DurableLSN())
	}
}

// TestFollowerCrashRecovery abandons a mid-replication follower without any
// shutdown (the in-process stand-in for SIGKILL: the WAL is simply never
// closed), reopens its directory, and verifies recovery lands exactly on
// the acked prefix with every row exactly once — then replication resumes
// from there.
func TestFollowerCrashRecovery(t *testing.T) {
	ldb, _, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	for i := 0; i < 20; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}

	dir := t.TempDir()
	crashDB, _, err := engine.OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	crashDB.SetReplicaMode(srv.URL)
	f := NewFollower(crashDB, srv.URL, FollowerOptions{ID: "crash", PollWait: 10 * time.Millisecond})
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	applied := crashDB.AppliedLSN()
	if applied == 0 {
		t.Fatal("nothing applied before the crash")
	}
	// Crash: abandon crashDB without Close. Its frames were fsynced by the
	// batch SyncWALTo, so recovery must see all of them.
	rdb, info, err := engine.OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.CloseDurability() })
	rdb.SetReplicaMode(srv.URL)
	if info.LSN != applied {
		t.Fatalf("recovered replica at LSN %d, want acked prefix %d", info.LSN, applied)
	}
	res := execOK(t, rdb, "SELECT count(*) FROM kv")
	if got := boxed(res)[0][0].(int64); got != 20 {
		t.Fatalf("recovered %d rows, want 20 (exactly once)", got)
	}

	// More leader writes; a fresh follower over the recovered dir resumes
	// from the recovered LSN, no bootstrap, no re-apply.
	for i := 20; i < 25; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	f2 := NewFollower(rdb, srv.URL, FollowerOptions{ID: "crash", PollWait: 10 * time.Millisecond})
	syncUntilCaughtUp(t, f2, ldb)
	if got := f2.Gauges()["flock_repl_bootstraps_total"]; got != 0 {
		t.Fatalf("recovery path bootstrapped %v times, want 0", got)
	}
	assertSameContents(t, ldb, rdb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
	assertSameFrames(t, ldb, rdb)
}
