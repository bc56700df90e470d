package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// rotateWAL forces a segment rotation without a checkpoint, producing the
// multi-segment on-disk layouts the shipper's read path must handle.
func rotateWAL(t *testing.T, db *DB) {
	t.Helper()
	db.commitMu.Lock()
	_, err := db.wal.rotate()
	db.commitMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// collectSince pages through ReadWALSince until the durable watermark,
// asserting contiguity, and returns the LSNs and payloads seen.
func collectSince(t *testing.T, db *DB, from int64, maxBytes int) ([]int64, [][]byte) {
	t.Helper()
	var lsns []int64
	var payloads [][]byte
	for {
		last, durable, err := db.ReadWALSince(from, maxBytes, func(lsn int64, payload []byte) error {
			lsns = append(lsns, lsn)
			payloads = append(payloads, append([]byte(nil), payload...))
			return nil
		})
		if err != nil {
			t.Fatalf("ReadWALSince(%d): %v", from, err)
		}
		if last >= durable {
			return lsns, payloads
		}
		from = last
	}
}

// TestReadWALSinceOffsets exercises the shipper's read path from every
// possible LSN offset over a multi-segment layout (two rotated segments
// plus the live log): each scan must deliver exactly the contiguous run
// (from, durable].
func TestReadWALSinceOffsets(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDurability()
	mustExec(t, db, "CREATE TABLE kv (id int, v int)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	rotateWAL(t, db)
	for i := 10; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	rotateWAL(t, db)
	for i := 20; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	durable := db.DurableLSN()
	if durable < 31 {
		t.Fatalf("expected at least 31 durable frames, got %d", durable)
	}
	for from := int64(0); from <= durable; from++ {
		lsns, _ := collectSince(t, db, from, 1<<30)
		want := durable - from
		if int64(len(lsns)) != want {
			t.Fatalf("from %d: got %d frames, want %d", from, len(lsns), want)
		}
		for i, lsn := range lsns {
			if lsn != from+int64(i)+1 {
				t.Fatalf("from %d: frame %d has LSN %d, want %d", from, i, lsn, from+int64(i)+1)
			}
		}
	}

	// A one-byte budget degenerates to one frame per call and still
	// converges on the same sequence.
	paged, _ := collectSince(t, db, 0, 1)
	if int64(len(paged)) != durable {
		t.Fatalf("paged scan returned %d frames, want %d", len(paged), durable)
	}
}

// TestReadWALSinceTruncated pins the horizon contract: after a checkpoint
// folds frames into the snapshot, reading from below the horizon reports
// ErrWALTruncated (bootstrap needed) while reading from the horizon works.
func TestReadWALSinceTruncated(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDurability()
	mustExec(t, db, "CREATE TABLE kv (id int)")
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	horizon := db.WALHorizon()
	if horizon == 0 {
		t.Fatal("horizon still 0 after checkpoint")
	}
	mustExec(t, db, "INSERT INTO kv VALUES (99)")

	_, _, err = db.ReadWALSince(0, 1<<20, func(int64, []byte) error { return nil })
	if !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("read below horizon: got %v, want ErrWALTruncated", err)
	}
	lsns, _ := collectSince(t, db, horizon, 1<<20)
	if len(lsns) == 0 {
		t.Fatal("read from horizon returned nothing")
	}

	// A snapshot now exists and covers exactly the horizon.
	blob, snapLSN, err := db.SnapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	if snapLSN != horizon {
		t.Fatalf("snapshot LSN %d != horizon %d", snapLSN, horizon)
	}
	if len(blob) == 0 {
		t.Fatal("empty snapshot blob")
	}
}

// TestReadWALSinceTornTail appends garbage and a truncated frame header
// past the durable frames: the scan must deliver everything durable and
// end cleanly, never surfacing the tear (it is an unacked partial append).
func TestReadWALSinceTornTail(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE kv (id int)")
	horizon := db.WALHorizon()
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	durable := db.DurableLSN()

	// Tear the tail on disk: half a frame header, then nothing. Everything
	// durable precedes it, so the scan must not notice.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	lsns, _ := collectSince(t, db, horizon, 1<<20)
	if int64(len(lsns)) != durable-horizon {
		t.Fatalf("torn-tail scan returned %d frames, want %d", len(lsns), durable-horizon)
	}
}

// TestReplicaApplyRoundTrip ships frames engine-to-engine: every leader
// frame applied through ApplyReplicated must land the replica on the same
// LSN with the same query results, duplicates must skip idempotently, and
// gaps must be rejected.
func TestReplicaApplyRoundTrip(t *testing.T) {
	leader, _, err := OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.CloseDurability()
	replica, _, err := OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.CloseDurability()
	replica.SetReplicaMode("test-leader")

	mustExec(t, leader, "CREATE TABLE kv (id int, v int)")
	for i := 0; i < 20; i++ {
		mustExec(t, leader, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*10))
	}
	mustExec(t, leader, "UPDATE kv SET v = v + 1 WHERE id < 5")
	mustExec(t, leader, "DELETE FROM kv WHERE id = 19")

	_, payloads := collectSince(t, leader, 0, 1<<30)
	for _, p := range payloads {
		if _, err := replica.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := replica.SyncWALTo(replica.AppliedLSN()); err != nil {
		t.Fatal(err)
	}
	if got, want := replica.AppliedLSN(), leader.DurableLSN(); got != want {
		t.Fatalf("replica at LSN %d, leader durable %d", got, want)
	}
	for _, q := range []string{
		"SELECT count(*) FROM kv",
		"SELECT sum(v) FROM kv",
	} {
		lr, err := leader.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := replica.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(boxed(lr)) != fmt.Sprint(boxed(rr)) {
			t.Fatalf("%s diverged: leader %v, replica %v", q, boxed(lr), boxed(rr))
		}
	}

	// Re-applying an old frame is an idempotent skip, not an error.
	if lsn, err := replica.ApplyReplicated(payloads[0]); err != nil || lsn != replica.AppliedLSN() {
		t.Fatalf("duplicate apply: lsn=%d err=%v", lsn, err)
	}
	// A frame that skips ahead is a gap and must be rejected. Fabricate it
	// by replaying the last payloads on a second fresh replica out of order.
	replica2, _, err := OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer replica2.CloseDurability()
	replica2.SetReplicaMode("test-leader")
	if _, err := replica2.ApplyReplicated(payloads[3]); err == nil {
		t.Fatal("gap apply succeeded; want error")
	}
	// Local writes are rejected while replicating.
	if _, err := replica.Exec("INSERT INTO kv VALUES (100, 100)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica write: got %v, want ErrReadOnly", err)
	}
}

// TestBootstrapReplicaFromSnapshot covers the behind-the-horizon path: a
// fresh replica cannot read from LSN 0 after the leader checkpointed, so
// it rebases onto the shipped snapshot and tails the rest of the log.
func TestBootstrapReplicaFromSnapshot(t *testing.T) {
	leader, _, err := OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.CloseDurability()
	mustExec(t, leader, "CREATE TABLE kv (id int)")
	for i := 0; i < 10; i++ {
		mustExec(t, leader, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		mustExec(t, leader, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}

	replicaDir := t.TempDir()
	replica, _, err := OpenDirDB(replicaDir, false)
	if err != nil {
		t.Fatal(err)
	}
	replica.SetReplicaMode("test-leader")

	_, _, err = leader.ReadWALSince(0, 1<<20, func(int64, []byte) error { return nil })
	if !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("expected truncation from LSN 0, got %v", err)
	}
	blob, snapLSN, err := leader.SnapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.BootstrapReplica(blob); err != nil {
		t.Fatal(err)
	}
	if replica.AppliedLSN() != snapLSN {
		t.Fatalf("bootstrap landed at %d, want %d", replica.AppliedLSN(), snapLSN)
	}
	_, payloads := collectSince(t, leader, snapLSN, 1<<30)
	for _, p := range payloads {
		if _, err := replica.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := replica.Exec("SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(int64) != 15 {
		t.Fatalf("replica count %v, want 15", boxed(res)[0][0])
	}

	// The bootstrap must survive a restart: recovery from the replica's
	// own directory lands on the same LSN and contents.
	applied := replica.AppliedLSN()
	if err := replica.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDirDB(replicaDir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	if re.LastLSN() != applied {
		t.Fatalf("recovered replica at LSN %d, want %d", re.LastLSN(), applied)
	}
	res2, err := re.Exec("SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res2)[0][0].(int64) != 15 {
		t.Fatalf("recovered count %v, want 15", boxed(res2)[0][0])
	}
}

// TestCommitGateOrdering pins the quorum seam: the gate runs after local
// durability with the statement's LSN; a gate error fails the ack but the
// write stays installed and durable (an ambiguous commit, like a response
// lost on the wire).
func TestCommitGateOrdering(t *testing.T) {
	db, _, err := OpenDirDB(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDurability()
	mustExec(t, db, "CREATE TABLE kv (id int)")

	var mu sync.Mutex
	var gated []int64
	db.SetCommitGate(func(lsn int64) error {
		if db.DurableLSN() < lsn {
			t.Errorf("gate ran before LSN %d was durable (watermark %d)", lsn, db.DurableLSN())
		}
		mu.Lock()
		gated = append(gated, lsn)
		mu.Unlock()
		return nil
	})
	mustExec(t, db, "INSERT INTO kv VALUES (1)")
	mustExec(t, db, "INSERT INTO kv VALUES (2)")
	mu.Lock()
	n := len(gated)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("gate ran %d times, want 2", n)
	}

	gateErr := errors.New("quorum lost")
	db.SetCommitGate(func(int64) error { return gateErr })
	if _, err := db.Exec("INSERT INTO kv VALUES (3)"); !errors.Is(err, gateErr) {
		t.Fatalf("gated insert: got %v, want the gate error", err)
	}
	db.SetCommitGate(nil)
	res, err := db.Exec("SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(int64) != 3 {
		t.Fatalf("count %v, want 3 (ambiguous commit must still install)", boxed(res)[0][0])
	}
}

// TestReopenWALCheckpointExclusive pins the reopen/checkpointer mutual
// exclusion (both serialize on the checkpoint lock): concurrent
// checkpoints, reopens and writers must never corrupt the on-disk state —
// a final recovery sees every committed row exactly once.
func TestReopenWALCheckpointExclusive(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE kv (id int)")

	const writers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Exec("INSERT INTO kv VALUES (" + strconv.Itoa(w*rounds+i) + ")"); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := db.ReopenWAL(); err != nil {
				t.Errorf("reopen: %v", err)
			}
		}
	}()
	wg.Wait()
	if down, reason := db.Degraded(); down {
		t.Fatalf("degraded after reopen/checkpoint race: %s", reason)
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	re, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	res, err := re.Exec("SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != writers*rounds {
		t.Fatalf("recovered %d rows, want %d", got, writers*rounds)
	}
}

// TestWriteFuzzCorpus regenerates the committed FuzzWALReplay seed corpus
// covering multi-segment layouts (run with FLOCK_WRITE_CORPUS=1; normally
// it only verifies the files exist). The corpus entries are single-stream
// concatenations of rotated segment frames plus the live log — exactly
// what boot replay walks, including a torn and a duplicated variant.
func TestWriteFuzzCorpus(t *testing.T) {
	corpusDir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if os.Getenv("FLOCK_WRITE_CORPUS") == "" {
		entries, err := os.ReadDir(corpusDir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("committed fuzz corpus missing at %s (regenerate with FLOCK_WRITE_CORPUS=1): %v", corpusDir, err)
		}
		return
	}
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE fz (id int, v int)")
	for i := 0; i < 6; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO fz VALUES (%d, %d)", i, i))
	}
	rotateWAL(t, db)
	for i := 6; i < 12; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO fz VALUES (%d, %d)", i, i))
	}
	rotateWAL(t, db)
	mustExec(t, db, "UPDATE fz SET v = v + 1 WHERE id < 3")
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	// Stitch segments + live log into one stream (single header).
	files, err := walFilesInOrder(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	stream.WriteString(walHeader)
	var segFrames [][]byte // frames of the middle segment, for the dup variant
	for i, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body := raw[len(walHeader):]
		stream.Write(body)
		if i == 1 {
			segFrames = append(segFrames, body)
		}
	}
	full := stream.Bytes()
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("multiseg", full)
	write("multiseg_torn", full[:len(full)-5])
	dup := append([]byte(nil), full...)
	for _, b := range segFrames {
		dup = append(dup, b...) // stale duplicated segment at the tail
	}
	write("multiseg_dup", dup)
}
