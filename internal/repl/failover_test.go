package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// newNodeServer mounts a Node's endpoints on an httptest server.
func newNodeServer(t *testing.T, n *Node) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	n.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func countOfID(t *testing.T, db *engine.DB, id int) int64 {
	t.Helper()
	res := execOK(t, db, fmt.Sprintf("SELECT count(*) FROM kv WHERE id = %d", id))
	return boxed(res)[0][0].(int64)
}

// TestFailoverKillLeaderPromote is the PR's core safety claim: kill the
// leader mid-workload (abandoned without shutdown, listener closed),
// promote the quorum-acked follower, and every write that was acked to a
// client survives exactly once on the new leader. The restarted old leader
// comes back fenced and rejoins the new lineage via repoint.
func TestFailoverKillLeaderPromote(t *testing.T) {
	ldir := t.TempDir()
	ldb, _, err := engine.OpenDirDB(ldir, false)
	if err != nil {
		t.Fatal(err)
	}
	// No cleanup close: the leader "dies" by abandonment (SIGKILL stand-in).
	execOK(t, ldb, "CREATE TABLE kv (id int)") // before the quorum gate exists
	lnode := NewLeaderNode(ldb, NodeOptions{Leader: Options{Quorum: 1, AckTimeout: 10 * time.Second}})
	lsrv := newNodeServer(t, lnode)

	rdb := newReplicaNode(t, "", lsrv.URL)
	fnode := NewFollowerNode(rdb, lsrv.URL, NodeOptions{
		Follower: FollowerOptions{ID: "f1", PollWait: 20 * time.Millisecond},
	})
	fsrv := newNodeServer(t, fnode)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = fnode.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	// Concurrent writers: an id is "acked" only when its Exec returned nil,
	// which under quorum=1 means the follower applied and fsynced it.
	var mu sync.Mutex
	acked := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 100; i < w*100+25; i++ {
				if _, err := ldb.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d)", i)); err == nil {
					mu.Lock()
					acked[i] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no write was acked before the crash")
	}

	// Kill the leader: close its listener, never close its DB.
	lsrv.Close()

	epoch, err := fnode.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch %d, want 2", epoch)
	}
	if got := fnode.Role(); got != "leader" {
		t.Fatalf("promoted role %q, want leader", got)
	}
	if rdb.Epoch() != 2 || rdb.IsReplica() {
		t.Fatalf("promoted db: epoch %d, replica=%v", rdb.Epoch(), rdb.IsReplica())
	}
	// Idempotent re-promote.
	if again, err := fnode.Promote(ctx); err != nil || again != 2 {
		t.Fatalf("re-promote: epoch %d, err %v", again, err)
	}

	// Every acked write survives exactly once; the write gate is open.
	for id := range acked {
		if n := countOfID(t, rdb, id); n != 1 {
			t.Fatalf("acked id %d present %d times after promotion, want exactly 1", id, n)
		}
	}
	execOK(t, rdb, "INSERT INTO kv VALUES (9999)")

	// Restart the old leader from its directory: it still believes epoch 1.
	odb, _, err := engine.OpenDirDB(ldir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { odb.CloseDurability() })
	if odb.Epoch() != 1 {
		t.Fatalf("restarted old leader epoch %d, want 1", odb.Epoch())
	}
	onode := NewLeaderNode(odb, NodeOptions{})

	// The boot peer probe sees the promoted node's higher epoch: the old
	// leader comes back fenced and can never ack a write again.
	onode.ProbePeers(ctx, []string{fsrv.URL})
	if fenced, observed, _ := odb.Fenced(); !fenced || observed != 2 {
		t.Fatalf("old leader after probe: fenced=%v observed=%d, want fenced at 2", fenced, observed)
	}
	if onode.Role() != "fenced" {
		t.Fatalf("old leader role %q, want fenced", onode.Role())
	}
	if _, err := odb.Exec("INSERT INTO kv VALUES (-1)"); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("fenced write: got %v, want ErrFenced", err)
	}
	if err := odb.ReopenWAL(); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("fenced reopen: got %v, want ErrFenced (fencing is terminal)", err)
	}
	// Repoint the fenced ex-leader at the new leader: it demotes, adopts the
	// new lineage, and converges.
	if err := onode.Repoint(ctx, fsrv.URL); err != nil {
		t.Fatalf("repoint: %v", err)
	}
	if onode.Role() != "replica" {
		t.Fatalf("repointed role %q, want replica", onode.Role())
	}
	syncUntilCaughtUp(t, onode.Follower(), rdb)
	if odb.Epoch() != 2 {
		t.Fatalf("repointed old leader epoch %d, want 2 (adopted in-band)", odb.Epoch())
	}
	assertSameContents(t, rdb, odb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
}

// TestFailoverDivergedTailDiscarded promotes a follower while the old
// leader holds an unreplicated (acked-nowhere under the new epoch) tail:
// the rejoining old leader is detected as diverged by the (epoch, LSN)
// comparison, re-bootstraps from the new leader's snapshot, and the
// divergent rows are gone.
func TestFailoverDivergedTailDiscarded(t *testing.T) {
	ldir := t.TempDir()
	ldb, _, err := engine.OpenDirDB(ldir, false)
	if err != nil {
		t.Fatal(err)
	}
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	lnode := NewLeaderNode(ldb, NodeOptions{}) // async acks: a tail can be local-only
	lsrv := newNodeServer(t, lnode)
	for i := 0; i < 10; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}

	rdb := newReplicaNode(t, "", lsrv.URL)
	fnode := NewFollowerNode(rdb, lsrv.URL, NodeOptions{
		Follower: FollowerOptions{ID: "f1", PollWait: 20 * time.Millisecond},
	})
	fsrv := newNodeServer(t, fnode)
	syncUntilCaughtUp(t, fnode.Follower(), ldb)

	// The divergent tail: locally acked on the old leader, never shipped.
	execOK(t, ldb, "INSERT INTO kv VALUES (1000)")
	execOK(t, ldb, "INSERT INTO kv VALUES (1001)")
	lsrv.Close() // old leader "dies" with the tail
	ctx := context.Background()
	if _, err := fnode.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The old leader restarts with its tail intact and rejoins.
	odb, _, err := engine.OpenDirDB(ldir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { odb.CloseDurability() })
	if n := countOfID(t, odb, 1000); n != 1 {
		t.Fatalf("restarted old leader lost its own tail row: count %d", n)
	}
	onode := NewLeaderNode(odb, NodeOptions{})
	if err := onode.Repoint(ctx, fsrv.URL); err != nil {
		t.Fatalf("repoint: %v", err)
	}
	f := onode.Follower()
	// The first round draws the diverged 409 and routes through bootstrap.
	syncUntilCaughtUp(t, f, rdb)
	if got := f.Gauges()["flock_repl_bootstraps_total"]; got != 1 {
		t.Fatalf("diverged rejoin bootstrapped %v times, want 1", got)
	}
	if n := countOfID(t, odb, 1000); n != 0 {
		t.Fatalf("divergent row survived the rejoin: count %d, want 0", n)
	}
	if odb.Epoch() != 2 {
		t.Fatalf("rejoined epoch %d, want 2", odb.Epoch())
	}
	assertSameContents(t, rdb, odb, "SELECT count(*) FROM kv", "SELECT sum(id) FROM kv")
}

// TestEpochFencingOnAcks exercises the ack-side epoch gate directly on the
// wire: a higher-epoch ack fences the leader; a stale-epoch ack is
// rejected with 409 and never counts toward quorum.
func TestEpochFencingOnAcks(t *testing.T) {
	ldb, _, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")

	postAck := func(body map[string]any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+PathAck, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Ack from the future: the leader is deposed on the spot.
	resp := postAck(map[string]any{"follower": "new-gen", "applied_lsn": int64(1), "epoch": int64(7)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("higher-epoch ack: HTTP %d, want 503", resp.StatusCode)
	}
	if fenced, observed, _ := ldb.Fenced(); !fenced || observed != 7 {
		t.Fatalf("leader after higher-epoch ack: fenced=%v observed=%d", fenced, observed)
	}
	if _, err := ldb.Exec("INSERT INTO kv VALUES (1)"); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("post-fence write: got %v, want ErrFenced", err)
	}
	// A fenced leader refuses to ship and to serve bootstrap images.
	wreq, _ := json.Marshal(walRequest{FromLSN: 0, Follower: "f"})
	wresp, err := http.Post(srv.URL+PathWAL, "application/json", bytes.NewReader(wreq))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced ship: HTTP %d, want 503", wresp.StatusCode)
	}

	// Stale acks on a healthy higher-epoch leader: rejected, not recorded.
	l2db, l2, srv2 := newLeaderNode(t, Options{})
	execOK(t, l2db, "CREATE TABLE kv (id int)")
	l2db.DemoteToReplica("nowhere")
	l2db.Fence(4, "test setup")                       // observe epoch 4 while a replica...
	if _, err := l2db.PromoteToLeader(); err != nil { // ...and take epoch 5
		t.Fatal(err)
	}
	if l2db.Epoch() != 5 {
		t.Fatalf("setup epoch %d, want 5", l2db.Epoch())
	}
	buf, _ := json.Marshal(map[string]any{"follower": "old-gen", "applied_lsn": int64(99), "epoch": int64(1)})
	resp2, err := http.Post(srv2.URL+PathAck, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch ack: HTTP %d, want 409", resp2.StatusCode)
	}
	for _, f := range l2.CurrentStatus().Followers {
		if f.ID == "old-gen" && f.AckLSN > 0 {
			t.Fatalf("stale ack counted toward quorum: %+v", f)
		}
	}
}

// TestFollowerRejectsStaleLeader gives the follower a higher epoch than
// the node it tails. An honest leader fences itself on the request's epoch
// stamp before replying, so the follower-side header gate is exercised with
// a fake leader that answers 200 with a stale epoch header: the response
// must be rejected before any frame is applied.
func TestFollowerRejectsStaleLeader(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderEpoch, "1")
		w.Header().Set(HeaderLastLSN, "999")
		w.WriteHeader(http.StatusOK)
		// A frame the follower must never apply.
		_, _ = w.Write([]byte{0xde, 0xad, 0xbe, 0xef})
	}))
	t.Cleanup(fake.Close)

	rdb := newReplicaNode(t, "", fake.URL)
	rdb.Fence(3, "test: a newer lineage exists")
	if _, err := rdb.PromoteToLeader(); err != nil { // consumes the fence: epoch 4
		t.Fatal(err)
	}
	rdb.DemoteToReplica(fake.URL)
	if rdb.Epoch() != 4 {
		t.Fatalf("follower epoch %d, want 4", rdb.Epoch())
	}

	f := NewFollower(rdb, fake.URL, FollowerOptions{ID: "future", PollWait: 10 * time.Millisecond})
	before := rdb.AppliedLSN()
	err := f.SyncOnce(context.Background())
	if !errors.Is(err, ErrStaleLeader) {
		t.Fatalf("sync against deposed leader: got %v, want ErrStaleLeader", err)
	}
	if rdb.AppliedLSN() != before {
		t.Fatal("stale leader's frames were applied despite the epoch gate")
	}
}

// TestPromoteChaos drives the promotion failpoints: an aborted promotion
// (at the repl.promote entry, or mid-fold via an engine snapshot fault)
// leaves the node a read-only follower that still replicates — never a
// half-promoted leader — and the invariant "at most one writable node"
// holds at every step. A cold reopen after the failed attempt recovers the
// old follower state; a later clean promotion succeeds.
func TestPromoteChaos(t *testing.T) {
	defer fault.Reset()
	ldb, _, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	for i := 0; i < 8; i++ {
		execOK(t, ldb, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	rdir := t.TempDir()
	rdb := newReplicaNode(t, rdir, srv.URL)
	fnode := NewFollowerNode(rdb, srv.URL, NodeOptions{
		Follower: FollowerOptions{ID: "chaos", PollWait: 10 * time.Millisecond},
	})
	syncUntilCaughtUp(t, fnode.Follower(), ldb)
	ctx := context.Background()

	assertFollowerStillWorks := func(step string) {
		t.Helper()
		if fnode.Role() != "replica" {
			t.Fatalf("%s: role %q, want replica", step, fnode.Role())
		}
		if _, err := rdb.Exec("INSERT INTO kv VALUES (-1)"); !errors.Is(err, engine.ErrReadOnly) {
			t.Fatalf("%s: replica write got %v, want ErrReadOnly (one writable node max)", step, err)
		}
		execOK(t, ldb, "INSERT INTO kv VALUES (100)")
		syncUntilCaughtUp(t, fnode.Follower(), ldb)
	}

	// Schedule 1: promotion aborted at its entry failpoint.
	fault.Enable(FaultPromote, fault.Spec{Count: 1})
	if _, err := fnode.Promote(ctx); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("aborted promote: got %v, want injected", err)
	}
	assertFollowerStillWorks("after entry abort")

	// Schedule 2: the epoch-stamped snapshot fold fails mid-promotion.
	fault.Enable("snapshot.write", fault.Spec{Count: 1})
	if _, err := fnode.Promote(ctx); err == nil {
		t.Fatal("promote with failing snapshot fold unexpectedly succeeded")
	}
	fault.Disable("snapshot.write")
	assertFollowerStillWorks("after mid-fold failure")

	// Crash after the failed attempts: recovery lands on follower state.
	applied := rdb.AppliedLSN()
	reopened, info, err := engine.OpenDirDB(rdir, false) // rdb abandoned = crash
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.CloseDurability() })
	if info.LSN != applied || reopened.Epoch() != 1 {
		t.Fatalf("post-crash recovery: LSN %d (want %d), epoch %d (want 1)",
			info.LSN, applied, reopened.Epoch())
	}
	reopened.SetReplicaMode(srv.URL)

	// Clean promotion on the recovered node succeeds; its epoch survives a
	// further crash-and-reopen.
	n2 := NewFollowerNode(reopened, srv.URL, NodeOptions{
		Follower: FollowerOptions{ID: "chaos", PollWait: 10 * time.Millisecond},
	})
	syncUntilCaughtUp(t, n2.Follower(), ldb)
	if _, err := n2.Promote(ctx); err != nil {
		t.Fatalf("clean promote after chaos: %v", err)
	}
	execOK(t, reopened, "INSERT INTO kv VALUES (200)")
	final, info2, err := engine.OpenDirDB(rdir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { final.CloseDurability() })
	if final.Epoch() != 2 {
		t.Fatalf("promoted epoch lost in crash: %d, want 2 (info %+v)", final.Epoch(), info2)
	}
	if n := countOfID(t, final, 200); n != 1 {
		t.Fatalf("post-promotion write present %d times after crash, want 1", n)
	}
}

// TestFenceRaceSchedule widens the fence window with the repl.fence
// latency failpoint while writers hammer the old leader and a new-epoch
// ship request lands: whatever interleaving occurs, the end state is at
// most one writable node and the old leader is fenced.
func TestFenceRaceSchedule(t *testing.T) {
	defer fault.Reset()
	ldb, _, srv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	fault.Enable(FaultFence, fault.Spec{Latency: 30 * time.Millisecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writers racing the fence
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = ldb.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
		}
	}()
	// Concurrent higher-epoch ship requests (a repointed follower of the
	// new leader probing the old one).
	var reqWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		reqWG.Add(1)
		go func() {
			defer reqWG.Done()
			body, _ := json.Marshal(walRequest{FromLSN: 0, Follower: "newgen", Epoch: 2})
			resp, err := http.Post(srv.URL+PathWAL, "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	reqWG.Wait()
	close(stop)
	wg.Wait()

	if fenced, observed, _ := ldb.Fenced(); !fenced || observed != 2 {
		t.Fatalf("old leader not fenced after race: fenced=%v observed=%d", fenced, observed)
	}
	if _, err := ldb.Exec("INSERT INTO kv VALUES (-1)"); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("end state: write got %v, want ErrFenced (at most one writable node)", err)
	}
	if fault.Triggered(FaultFence) == 0 {
		t.Fatal("fence failpoint never fired")
	}
}

// TestNodeDispatchNotLeader verifies the role-aware endpoint dispatch: a
// replica answering leader endpoints returns 503 with an X-Flock-Leader
// hint instead of shipping anything.
func TestNodeDispatchNotLeader(t *testing.T) {
	ldb, _, lsrv := newLeaderNode(t, Options{})
	execOK(t, ldb, "CREATE TABLE kv (id int)")
	rdb := newReplicaNode(t, "", lsrv.URL)
	fnode := NewFollowerNode(rdb, lsrv.URL, NodeOptions{Follower: FollowerOptions{ID: "d"}})
	fsrv := newNodeServer(t, fnode)

	body, _ := json.Marshal(walRequest{FromLSN: 0, Follower: "x"})
	resp, err := http.Post(fsrv.URL+PathWAL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ship from a replica: HTTP %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Flock-Leader"); got != lsrv.URL {
		t.Fatalf("leader hint %q, want %q", got, lsrv.URL)
	}
	// Status serves the replica report.
	sresp, err := http.Get(fsrv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st ReplicaStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "replica" || st.Epoch != 1 {
		t.Fatalf("replica status: %+v", st)
	}
}
