package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// logKey is what TestQueryLogFraming compares of a query log: each entry's
// Seq and text, in order.
func logKey(log []LogEntry) []string {
	out := make([]string, len(log))
	for i, e := range log {
		out[i] = fmt.Sprintf("%d:%s", e.Seq, e.Text)
	}
	return out
}

func sameLog(t *testing.T, got, want []LogEntry) {
	t.Helper()
	g, w := logKey(got), logKey(want)
	if len(g) != len(w) {
		t.Fatalf("log has %d entries, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("log entry %d = %q, want %q", i, g[i], w[i])
		}
	}
}

// logFrames decodes dir's live WAL and returns its WALLog records.
func logFrames(t *testing.T, dir string) []WALRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	var out []WALRecord
	if _, err := readWAL(bytes.NewReader(raw), func(rec *WALRecord, _ []byte) error {
		if rec.Kind == WALLog {
			out = append(out, *rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func reopen(t *testing.T, dir string) *DB {
	t.Helper()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.CloseDurability() })
	return db
}

// TestQueryLogFraming pins how the query log reaches the WAL: reads append
// to an in-memory tail, and the tail is framed as one WALLog record before
// the next durable record, at logFrameBatch pending entries, at a
// checkpoint and at CloseDurability — every path recovering the same log,
// by Seq and text, with no entry lost or duplicated.
func TestQueryLogFraming(t *testing.T) {
	t.Run("reads then commit, crash", func(t *testing.T) {
		dir := t.TempDir()
		db := reopen(t, dir)
		mustExec(t, db, "CREATE TABLE kv (id int, v int)")
		for i := 0; i < 300; i++ {
			countOf(t, db, fmt.Sprintf("SELECT count(*) FROM kv WHERE v > %d", i))
		}
		mustExec(t, db, "INSERT INTO kv VALUES (1, 1)")
		want := db.QueryLog()
		// No CloseDurability: the reopen sees only what the WAL holds.
		sameLog(t, reopen(t, dir).QueryLog(), want)
	})

	t.Run("reads then close", func(t *testing.T) {
		dir := t.TempDir()
		db := reopen(t, dir)
		mustExec(t, db, "CREATE TABLE kv (id int, v int)")
		for i := 0; i < 10; i++ {
			countOf(t, db, fmt.Sprintf("SELECT count(*) FROM kv WHERE v > %d", i))
		}
		want := db.QueryLog()
		if err := db.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		sameLog(t, reopen(t, dir).QueryLog(), want)
	})

	t.Run("checkpoint between reads", func(t *testing.T) {
		dir := t.TempDir()
		db := reopen(t, dir)
		mustExec(t, db, "CREATE TABLE kv (id int, v int)")
		for i := 0; i < 5; i++ {
			countOf(t, db, fmt.Sprintf("SELECT count(*) FROM kv WHERE v > %d", i))
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 5; i < 10; i++ {
			countOf(t, db, fmt.Sprintf("SELECT count(*) FROM kv WHERE v > %d", i))
		}
		mustExec(t, db, "INSERT INTO kv VALUES (1, 1)")
		want := db.QueryLog()
		got := reopen(t, dir).QueryLog()
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Fatalf("entry %d has Seq %d after %d: duplicated or out of order", i, got[i].Seq, got[i-1].Seq)
			}
		}
		sameLog(t, got, want)
	})

	t.Run("batch bound frames without a commit", func(t *testing.T) {
		dir := t.TempDir()
		db := reopen(t, dir)
		mustExec(t, db, "CREATE TABLE kv (id int, v int)") // its entry rides the CREATE's frame
		for i := 0; i < logFrameBatch-1; i++ {
			countOf(t, db, "SELECT count(*) FROM kv")
		}
		if n := len(logFrames(t, dir)); n != 1 {
			t.Fatalf("%d WALLog frames after %d pending reads, want 1 (the CREATE's)", n, logFrameBatch-1)
		}
		countOf(t, db, "SELECT count(*) FROM kv")
		frames := logFrames(t, dir)
		if len(frames) != 2 || len(frames[1].Entries) != logFrameBatch {
			t.Fatalf("after %d pending reads: %d WALLog frames, want 2 with the second holding %d entries", logFrameBatch, len(frames), logFrameBatch)
		}
		sameLog(t, reopen(t, dir).QueryLog(), db.QueryLog())
	})

	t.Run("legacy single-entry frame", func(t *testing.T) {
		dir := t.TempDir()
		e := LogEntry{Seq: 7, Text: "SELECT 1", User: "old", At: time.Unix(1700000000, 0)}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&WALRecord{LSN: 1, Kind: WALLog, Entry: &e}); err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		file.WriteString(walHeader)
		if err := AppendFrame(&file, payload.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		db := reopen(t, dir)
		sameLog(t, db.QueryLog(), []LogEntry{e})
		mustExec(t, db, "CREATE TABLE kv (id int)")
		if got := db.QueryLog(); got[len(got)-1].Seq != e.Seq+1 {
			t.Fatalf("next entry has Seq %d, want %d", got[len(got)-1].Seq, e.Seq+1)
		}
	})

	t.Run("concurrent reads, writes and checkpoints", func(t *testing.T) {
		dir := t.TempDir()
		db := reopen(t, dir)
		mustExec(t, db, "CREATE TABLE kv (id int, v int)")
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					q := fmt.Sprintf("SELECT count(*) FROM kv WHERE v > %d", i)
					switch {
					case w == 0 && i%30 == 0:
						if err := db.Checkpoint(); err != nil {
							t.Error(err)
						}
					case i%10 == w:
						q = fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", w, i)
					}
					if _, err := db.Exec(q); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		want := db.QueryLog()
		if err := db.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		got := reopen(t, dir).QueryLog()
		for i := 1; i < len(got); i++ {
			if got[i].Seq != got[i-1].Seq+1 {
				t.Fatalf("entry %d has Seq %d after %d", i, got[i].Seq, got[i-1].Seq)
			}
		}
		sameLog(t, got, want)
	})

	t.Run("follower log equals leader's", func(t *testing.T) {
		leader := reopen(t, t.TempDir())
		follower := reopen(t, t.TempDir())
		follower.SetReplicaMode("test-leader")
		mustExec(t, leader, "CREATE TABLE kv (id int, v int)")
		for i := 0; i < 2*logFrameBatch+10; i++ {
			countOf(t, leader, fmt.Sprintf("SELECT count(*) FROM kv WHERE id = %d", i))
			if i%100 == 0 {
				mustExec(t, leader, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
			}
		}
		mustExec(t, leader, "INSERT INTO kv VALUES (-1, -1)")
		_, payloads := collectSince(t, leader, 0, 1<<30)
		for _, p := range payloads {
			if _, err := follower.ApplyReplicated(p); err != nil {
				t.Fatal(err)
			}
		}
		sameLog(t, follower.QueryLog(), leader.QueryLog())
	})
}
