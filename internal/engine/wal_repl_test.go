package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
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

// TestReadWALSinceTruncated pins the horizon contract: a checkpoint keeps
// one interval of log, so after the first checkpoint the whole history is
// still readable; after the second, reading from below the horizon (the
// first snapshot's LSN) reports ErrWALTruncated (bootstrap needed) while
// reading from the horizon works, and the shipped snapshot covers the
// second checkpoint.
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
	first := db.LastLSN()
	if h := db.WALHorizon(); h != 0 {
		t.Fatalf("horizon %d after the first checkpoint, want 0 (one interval of log kept)", h)
	}
	mustExec(t, db, "INSERT INTO kv VALUES (98)")
	if lsns, _ := collectSince(t, db, 0, 1<<20); int64(len(lsns)) != db.DurableLSN() {
		t.Fatalf("read from 0 after one checkpoint returned %d frames, want %d", len(lsns), db.DurableLSN())
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := db.LastLSN()
	horizon := db.WALHorizon()
	if horizon != first {
		t.Fatalf("horizon %d after the second checkpoint, want the first snapshot's LSN %d", horizon, first)
	}
	mustExec(t, db, "INSERT INTO kv VALUES (99)")

	_, _, err = db.ReadWALSince(horizon-1, 1<<20, func(int64, []byte) error { return nil })
	if !errors.Is(err, ErrWALTruncated) {
		t.Fatalf("read below horizon: got %v, want ErrWALTruncated", err)
	}
	lsns, _ := collectSince(t, db, horizon, 1<<20)
	if int64(len(lsns)) != db.DurableLSN()-horizon {
		t.Fatalf("read from horizon returned %d frames, want %d", len(lsns), db.DurableLSN()-horizon)
	}

	// The snapshot covers the second checkpoint, not the horizon.
	blob, snapLSN, err := db.SnapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	if snapLSN != second {
		t.Fatalf("snapshot LSN %d, want the second checkpoint's %d", snapLSN, second)
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
// fresh replica cannot read from LSN 0 after the leader checkpointed twice,
// so it rebases onto the shipped snapshot and tails the rest of the log.
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
	// Two checkpoints: the first keeps its interval of log, the second
	// retires it.
	for round := 0; round < 2; round++ {
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
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

// walFrame is one frame as the sequential reference reader sees it.
type walFrame struct {
	file    string
	lsn     int64
	payload []byte
}

// sequentialFrames reads every intact frame of dir's WAL files oldest-first
// with the boot-replay reader (walFilesInOrder + readWAL, decoding each
// record for its LSN): the reference ReadWALSince's indexed reads must
// agree with.
func sequentialFrames(t testing.TB, dir string) []walFrame {
	t.Helper()
	files, err := walFilesInOrder(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []walFrame
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = readWAL(f, func(rec *WALRecord, payload []byte) error {
			out = append(out, walFrame{file: path, lsn: rec.LSN, payload: append([]byte(nil), payload...)})
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
	}
	return out
}

// referenceSince is the batch ReadWALSince must return for (from,
// maxBytes): the frames past from in the file holding from+1, up to
// durable, at least one and then as many as the payload budget fits.
func referenceSince(frames []walFrame, from, durable int64, maxBytes int) []walFrame {
	var out []walFrame
	sent := 0
	for _, fr := range frames {
		if fr.lsn <= from {
			continue
		}
		if fr.lsn > durable || (len(out) > 0 && (fr.file != out[0].file || sent+len(fr.payload) > maxBytes)) {
			break
		}
		out = append(out, fr)
		sent += len(fr.payload)
	}
	return out
}

// checkReaderMatchesSequential asserts, for every from in [horizon,
// durable] and every budget — including one the first two frames fill
// exactly — that one ReadWALSince call delivers exactly the reference
// batch (LSNs and payload bytes) and reports its last LSN.
func checkReaderMatchesSequential(t *testing.T, layout string, db *DB, dir string) {
	t.Helper()
	frames := sequentialFrames(t, dir)
	horizon, durable := db.WALHorizon(), db.DurableLSN()
	if len(frames) == 0 || frames[0].lsn != horizon+1 || frames[len(frames)-1].lsn < durable {
		t.Fatalf("%s: sequential reader sees %d frames; want %d..%d", layout, len(frames), horizon+1, durable)
	}
	const exactFit = -1
	for _, b := range []int{1, 4096, 1 << 30, exactFit} {
		for from := horizon; from <= durable; from++ {
			budget := b
			if b == exactFit {
				budget = 0
				for i, fr := range referenceSince(frames, from, durable, 1<<30) {
					if i < 2 {
						budget += len(fr.payload)
					}
				}
			}
			var got []walFrame
			last, d, err := db.ReadWALSince(from, budget, func(lsn int64, payload []byte) error {
				got = append(got, walFrame{lsn: lsn, payload: append([]byte(nil), payload...)})
				return nil
			})
			if err != nil {
				t.Fatalf("%s: ReadWALSince(%d, %d): %v", layout, from, budget, err)
			}
			want := referenceSince(frames, from, durable, budget)
			if d != durable || len(got) != len(want) || last != from+int64(len(want)) {
				t.Fatalf("%s: ReadWALSince(%d, %d): %d frames to %d (durable %d), want %d frames (durable %d)",
					layout, from, budget, len(got), last, d, len(want), durable)
			}
			for i := range want {
				if got[i].lsn != want[i].lsn || !bytes.Equal(got[i].payload, want[i].payload) {
					t.Fatalf("%s: ReadWALSince(%d, %d): frame %d is LSN %d, want LSN %d with the same bytes",
						layout, from, budget, i, got[i].lsn, want[i].lsn)
				}
			}
		}
	}
}

// TestReadWALSinceMatchesSequentialReader is the indexed reader's
// differential: over rotated segments kept across checkpoints, after a
// failed append the WAL rewound, and on a replica log built by appendRaw,
// every batch equals the one a sequential decode of the directory gives.
// The layouts build on one another, in order.
func TestReadWALSinceMatchesSequentialReader(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDurability()
	mustExec(t, db, "CREATE TABLE kv (id int, v text)")
	row := 0
	insert := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			// Payloads of varied size, so the 4096-byte budget cuts batches
			// at different frame counts.
			mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, '%s')", row, strings.Repeat("x", row*37%900)))
			row++
		}
	}

	// Segments across checkpoints: the second checkpoint retires the
	// first's interval, so the horizon is past 0.
	insert(12)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(8)
	mustExec(t, db, "UPDATE kv SET v = 'y' WHERE id < 4") // a whole-table WALReplace frame
	rotateWAL(t, db)
	insert(8)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(6)
	if db.WALHorizon() == 0 {
		t.Fatal("horizon still 0: the layout has no retired interval")
	}
	checkReaderMatchesSequential(t, "segments across checkpoints", db, dir)

	// A failed append the WAL rewound: tear the second write of the next
	// append (a frame's payload), so half of it reaches the file first.
	fault.Enable("wal.write", fault.Spec{Count: 1, Partial: true, After: 1})
	_, _ = db.Exec("INSERT INTO kv VALUES (-1, 'torn')")
	if fault.Triggered("wal.write") != 1 {
		t.Fatal("the wal.write failpoint never fired")
	}
	fault.Reset()
	if down, reason := db.Degraded(); down {
		t.Fatalf("a rewound append degraded the database: %s", reason)
	}
	insert(5)
	checkReaderMatchesSequential(t, "rewound failed append", db, dir)

	// A replica's log, built by appendRaw across a rotation.
	rdir := t.TempDir()
	replica, _, err := OpenDirDB(rdir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.CloseDurability()
	replica.SetReplicaMode("test-leader")
	blob, _, err := db.SnapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.BootstrapReplica(blob); err != nil {
		t.Fatal(err)
	}
	_, payloads := collectSince(t, db, replica.AppliedLSN(), 1<<30)
	for i, p := range payloads {
		if _, err := replica.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
		if i == len(payloads)/2 {
			rotateWAL(t, replica)
		}
	}
	checkReaderMatchesSequential(t, "replica log built by appendRaw", replica, rdir)
}

// TestReadWALSinceDetectsCorruption: a flipped payload byte or length
// field below the durable watermark, or a file cut short under it, errors
// loudly — and a read starting past the damaged frame never touches it.
func TestReadWALSinceDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string, off int64)
	}{
		{"payload byte", func(t *testing.T, path string, off int64) { flipByte(t, path, off+frameHeaderLen+2) }},
		{"length field", func(t *testing.T, path string, off int64) { flipByte(t, path, off) }},
		{"short file", func(t *testing.T, path string, off int64) {
			if err := os.Truncate(path, off+frameHeaderLen+1); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := OpenDirDB(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer db.CloseDurability()
			mustExec(t, db, "CREATE TABLE kv (id int)")
			for i := 0; i < 10; i++ {
				mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
			}
			rotateWAL(t, db)
			mustExec(t, db, "INSERT INTO kv VALUES (10)")

			seg := db.wal.segs[0]
			const k = 5 // damage frame seg.base+k+1
			tc.damage(t, seg.path, seg.offs[k])
			if _, _, err := db.ReadWALSince(seg.base+k, 1<<20, func(int64, []byte) error { return nil }); err == nil {
				t.Fatal("read over a damaged frame below the durable watermark succeeded")
			}
			if tc.name == "short file" {
				return // every later frame of the segment is gone too
			}
			lsns, _ := collectSince(t, db, seg.base+k+1, 1<<20)
			if want := db.DurableLSN() - (seg.base + k + 1); int64(len(lsns)) != want {
				t.Fatalf("read past the damaged frame returned %d frames, want %d", len(lsns), want)
			}
		})
	}
}

// flipByte inverts one byte of the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestReadWALSinceUnderConcurrentCommits runs two tailing readers against
// concurrent commits and checkpoints (the -race focus): every frame a
// reader receives decodes to the LSN it was delivered under, positions
// advance without gaps, and a reader the horizon passed resumes from the
// snapshot, as a bootstrapping follower would.
func TestReadWALSinceUnderConcurrentCommits(t *testing.T) {
	db, _, err := OpenDirDB(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDurability()
	mustExec(t, db, "CREATE TABLE kv (id int, v int)")

	const writers, rounds = 3, 40
	var writes, readers sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			for i := 0; i < rounds; i++ {
				q := fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", w*rounds+i, i)
				if i%10 == 9 {
					q = fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE id = %d", w*rounds)
				}
				if _, err := db.Exec(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(w)
	}
	writes.Add(1)
	go func() {
		defer writes.Done()
		for i := 0; i < 6; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
	}()
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(budget int) {
			defer readers.Done()
			pos := int64(0)
			for {
				last, durable, err := db.ReadWALSince(pos, budget, func(lsn int64, payload []byte) error {
					rec, err := decodeWALRecord(payload)
					if err != nil {
						return err
					}
					if rec.LSN != lsn || lsn != pos+1 {
						return fmt.Errorf("frame decodes to LSN %d, delivered as %d after %d", rec.LSN, lsn, pos)
					}
					pos = lsn
					return nil
				})
				if errors.Is(err, ErrWALTruncated) {
					pos = db.SnapshotLSN()
					continue
				}
				if err != nil {
					t.Errorf("reader at %d: %v", pos, err)
					return
				}
				if last != pos {
					t.Errorf("reader reported last %d, delivered through %d", last, pos)
					return
				}
				select {
				case <-done:
					if pos >= durable {
						return
					}
				default:
				}
			}
		}(256 << r)
	}
	writes.Wait()
	close(done)
	readers.Wait()
}

// BenchmarkReadWALSinceTail reads the newest frame of a log holding
// `behind` earlier frames — a caught-up follower's ship. Its cost must not
// grow with the log.
func BenchmarkReadWALSinceTail(b *testing.B) {
	for _, behind := range []int{100, 10000} {
		b.Run(fmt.Sprintf("behind=%d", behind), func(b *testing.B) {
			db, _, err := OpenDirDB(b.TempDir(), false)
			if err != nil {
				b.Fatal(err)
			}
			defer db.CloseDurability()
			for i := 0; i <= behind; i++ {
				rec := &WALRecord{Kind: WALInsert, Table: "kv", Rows: [][]Value{{IntValue(int64(i))}}}
				if _, err := db.wal.appendFrame(rec); err != nil {
					b.Fatal(err)
				}
			}
			from := db.DurableLSN() - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if _, _, err := db.ReadWALSince(from, 1<<20, func(int64, []byte) error { n++; return nil }); err != nil || n != 1 {
					b.Fatalf("read %d frames: %v", n, err)
				}
			}
		})
	}
}
