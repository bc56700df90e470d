package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// mustExec fails the test on statement error.
func mustExec(t *testing.T, db *DB, q string) {
	t.Helper()
	if _, err := db.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

func countOf(t *testing.T, db *DB, q string) int64 {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return boxed(res)[0][0].(int64)
}

// workloadDirDB opens dir and runs a small mixed DML workload through it.
func workloadDirDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE kv (id int, v int)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	mustExec(t, db, "UPDATE kv SET v = v + 100 WHERE id >= 5")
	mustExec(t, db, "DELETE FROM kv WHERE id = 0")
	return db
}

func checkWorkloadState(t *testing.T, db *DB) {
	t.Helper()
	if got := countOf(t, db, "SELECT count(*) FROM kv"); got != 9 {
		t.Fatalf("rows = %d, want 9", got)
	}
	if got := countOf(t, db, "SELECT count(*) FROM kv WHERE v >= 100"); got != 5 {
		t.Fatalf("updated rows = %d, want 5", got)
	}
}

// TestOpenDirRecoversWithoutCheckpoint is the crash path at engine level:
// every acknowledged statement is in the WAL, the process dies without ever
// checkpointing, and a reopen replays the log into the same state —
// including version counters and retained time-travel history.
func TestOpenDirRecoversWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := workloadDirDB(t, dir)
	tab, _ := db.Table("kv")
	wantVersion := tab.Version()
	wantRetained := tab.retainedVersions()
	// No Checkpoint, no CloseDurability: simulate a crash (the OS file is
	// written; only the in-memory state dies with the first DB).

	db2, info, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records == 0 {
		t.Fatalf("recovery replayed no records: %+v", info)
	}
	// Query log survived too (lazy provenance depends on it); compare before
	// the verification SELECTs below append to it.
	if len(db2.QueryLog()) != len(db.QueryLog()) {
		t.Errorf("log = %d entries, want %d", len(db2.QueryLog()), len(db.QueryLog()))
	}
	checkWorkloadState(t, db2)
	tab2, err := db2.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Version() != wantVersion {
		t.Errorf("recovered version = %d, want %d", tab2.Version(), wantVersion)
	}
	got := tab2.retainedVersions()
	if len(got) != len(wantRetained) {
		t.Fatalf("retained versions = %v, want %v", got, wantRetained)
	}
	// Time travel works across the restart: the pre-delete version still
	// shows all ten rows.
	res, err := db2.Exec(fmt.Sprintf("SELECT count(*) FROM kv VERSION %d", wantVersion-1))
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(int64) != 10 {
		t.Errorf("historical count = %v, want 10", boxed(res)[0][0])
	}
}

// TestCheckpointFoldsWAL: a checkpoint truncates the live log and keeps
// the segment it rotated for one more interval; the second checkpoint
// retires it (only the second's segment remains), and the directory still
// recovers (snapshot + post-checkpoint records).
func TestCheckpointFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	db := workloadDirDB(t, dir)
	before := db.WALSizeBytes()
	if before <= int64(len(walHeader)) {
		t.Fatalf("wal size before checkpoint = %d", before)
	}
	segments := func() []string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*"+walSegSuffix))
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := db.WALSizeBytes(); after >= before {
		t.Errorf("wal size after checkpoint = %d, want < %d", after, before)
	}
	first := db.LastLSN()
	if segs := segments(); len(segs) != 1 || filepath.Base(segs[0]) != segName(first) {
		t.Errorf("after the first checkpoint: segments %v, want only %s", segs, segName(first))
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("no snapshot after checkpoint: %v", err)
	}
	// Writes after the checkpoint land in the fresh log and replay on boot.
	mustExec(t, db, "INSERT INTO kv VALUES (99, 99)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := db.LastLSN()
	if segs := segments(); len(segs) != 1 || filepath.Base(segs[0]) != segName(second) {
		t.Errorf("after the second checkpoint: segments %v, want only %s (the first must be retired)", segs, segName(second))
	}
	if h := db.WALHorizon(); h != first {
		t.Errorf("horizon after the second checkpoint = %d, want the first snapshot's LSN %d", h, first)
	}
	if segs := db.wal.segs; len(segs) != 1 || segs[0].base != first || segs[0].last() != second {
		t.Errorf("frame index keeps %d segments, want only (%d, %d]", len(segs), first, second)
	}
	mustExec(t, db, "INSERT INTO kv VALUES (100, 100)")

	db2, info, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotLoaded {
		t.Error("recovery did not load the checkpoint snapshot")
	}
	if info.Segments != 1 {
		t.Errorf("recovery replayed %d files, want only wal.log (the kept segment is inside the snapshot)", info.Segments)
	}
	if got := countOf(t, db2, "SELECT count(*) FROM kv"); got != 11 {
		t.Fatalf("rows = %d, want 11", got)
	}
}

// TestWALReplayIdempotent: replaying the same log twice is a no-op — the
// LSN skip leaves row counts, versions and the query log unchanged.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	db := workloadDirDB(t, dir)
	_ = db
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewDB()
	applied, skipped, torn, err := fresh.ReplayWAL(bytes.NewReader(wal))
	if err != nil {
		t.Fatal(err)
	}
	if torn || applied == 0 || skipped != 0 {
		t.Fatalf("first replay: applied=%d skipped=%d torn=%t", applied, skipped, torn)
	}
	tab, _ := fresh.Table("kv")
	version := tab.Version()
	logLen := len(fresh.QueryLog())

	applied2, skipped2, torn2, err := fresh.ReplayWAL(bytes.NewReader(wal))
	if err != nil {
		t.Fatal(err)
	}
	if applied2 != 0 || skipped2 != applied+skipped || torn2 {
		t.Fatalf("second replay: applied=%d skipped=%d torn=%t, want 0/%d/false", applied2, skipped2, torn2, applied)
	}
	if tab.Version() != version {
		t.Errorf("version after double replay = %d, want %d", tab.Version(), version)
	}
	if len(fresh.QueryLog()) != logLen {
		t.Errorf("log after double replay = %d entries, want %d", len(fresh.QueryLog()), logLen)
	}
	checkWorkloadState(t, fresh)
}

// TestWALTornTail: a crash mid-append leaves a partial final record; replay
// applies everything before the tear and reports it, and a corrupted (CRC-
// mismatching) tail is treated the same way.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	workloadDirDB(t, dir)
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewDB()
	full, _, _, err := fresh.ReplayWAL(bytes.NewReader(wal))
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"corrupted": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-2] ^= 0xFF
			return b
		},
	} {
		db := NewDB()
		applied, _, torn, err := db.ReplayWAL(bytes.NewReader(mutate(wal)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !torn {
			t.Errorf("%s tail not reported as torn", name)
		}
		if applied != full-1 {
			t.Errorf("%s: applied %d records, want %d (all but the torn tail)", name, applied, full-1)
		}
	}

	// A directory whose live log is torn recovers cleanly end-to-end.
	if err := os.WriteFile(filepath.Join(dir, walFile), wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, info, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail {
		t.Error("recovery did not report the torn tail")
	}
	// The torn record was the DELETE; everything before it is present.
	if got := countOf(t, db2, "SELECT count(*) FROM kv"); got != 10 {
		t.Errorf("rows after torn-tail recovery = %d, want 10", got)
	}
}

// TestSnapshotConsistentUnderConcurrentDML: the snapshot barrier must
// capture all tables (and the query log) at one statement boundary. A
// writer inserts into a then b in lockstep; any consistent cut has
// count(a) - count(b) ∈ {0, 1}, while a torn per-table copy could observe
// b ahead of a. Run with -race to also exercise the locking.
func TestSnapshotConsistentUnderConcurrentDML(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE a (x int)")
	mustExec(t, db, "CREATE TABLE b (x int)")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO a VALUES (%d)", i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO b VALUES (%d)", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 10; i++ {
		blob, err := snapshotBytes(db)
		if err != nil {
			t.Fatal(err)
		}
		restored := NewDB()
		if err := restored.LoadSnapshot(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
		na := countOf(t, restored, "SELECT count(*) FROM a")
		nb := countOf(t, restored, "SELECT count(*) FROM b")
		if na-nb < 0 || na-nb > 1 {
			t.Fatalf("torn snapshot: count(a)=%d count(b)=%d", na, nb)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLoadSnapshotAllOrNothing: a snapshot that fails validation midway
// must leave the database untouched, so a retry with a good snapshot
// succeeds (no partial-restore poisoning).
func TestLoadSnapshotAllOrNothing(t *testing.T) {
	good := savedDB{FormatVersion: 2, Tables: []savedTable{
		{Name: "ok", Schema: Schema{{Name: "x", Type: TypeInt}}, Cols: []Column{IntColumn([]int64{1, 2})}, Version: 1},
	}}
	bad := savedDB{FormatVersion: 2, Tables: []savedTable{
		{Name: "ok", Schema: Schema{{Name: "x", Type: TypeInt}}, Cols: []Column{IntColumn([]int64{1, 2})}, Version: 1},
		// Ragged: the column type contradicts the schema.
		{Name: "broken", Schema: Schema{{Name: "x", Type: TypeInt}}, Cols: []Column{FloatColumn([]float64{1})}, Version: 1},
	}}
	encode := func(s savedDB) []byte {
		var buf bytes.Buffer
		if err := s.encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	db := NewDB()
	if err := db.LoadSnapshot(bytes.NewReader(encode(bad))); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	if n := len(db.TableNames()); n != 0 {
		t.Fatalf("failed restore left %d tables behind", n)
	}
	// The retry that used to fail with "requires an empty database".
	if err := db.LoadSnapshot(bytes.NewReader(encode(good))); err != nil {
		t.Fatalf("retry after failed restore: %v", err)
	}
	if got := countOf(t, db, "SELECT count(*) FROM ok"); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
}

// TestSnapshotV2KeepsHistory: retained time-travel versions survive a
// snapshot round trip (the v1 "history does not survive restarts" carve-out
// is gone).
func TestSnapshotV2KeepsHistory(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a int)")
	for i := 1; i <= 3; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	mustExec(t, db, "UPDATE t SET a = a * 10 WHERE a = 2")

	blob, err := snapshotBytes(db)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDB()
	if err := restored.LoadSnapshot(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("t")
	rtab, err := restored.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	want := tab.retainedVersions()
	got := rtab.retainedVersions()
	if len(got) != len(want) {
		t.Fatalf("retained = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained = %v, want %v", got, want)
		}
	}
	// Version 3 (before the UPDATE) still shows the original value.
	res, err := restored.Exec("SELECT sum(a) FROM t VERSION 3")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(float64) != 6 {
		t.Errorf("historical sum = %v, want 6", boxed(res)[0][0])
	}
	res, err = restored.Exec("SELECT sum(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(float64) != 24 {
		t.Errorf("current sum = %v, want 24", boxed(res)[0][0])
	}
}

// TestDropTableWALLogged: DDL is logged too — a dropped table stays dropped
// after recovery.
func TestDropTableWALLogged(t *testing.T) {
	dir := t.TempDir()
	db := workloadDirDB(t, dir)
	mustExec(t, db, "CREATE TABLE doomed (x int)")
	if err := db.DropTable("doomed"); err != nil {
		t.Fatal(err)
	}
	db2, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Table("doomed"); err == nil {
		t.Error("dropped table came back after recovery")
	}
	checkWorkloadState(t, db2)
}
