package engine

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// Earlier versions kept a query log in the engine: its batches went into
// the WAL as WALLog frames (carrying Entries, or a single Entry before
// batching) and every snapshot carried the whole log (Log, LogSeq). The
// structs below carry those field names, so gob encodes them as those
// versions did; the tests check that this version boots from and
// replicates such data, installing nothing from the log but its LSNs.

type parentLogEntry struct {
	Seq  int64
	Text string
	User string
	At   time.Time
}

type parentWALRecord struct {
	LSN     int64
	Kind    uint8
	Table   string
	Schema  Schema
	Rows    [][]Value
	Cols    []Column
	Entries []parentLogEntry
	Entry   *parentLogEntry
	Epoch   int64
}

type parentSavedDB struct {
	FormatVersion int
	Tables        []savedTable
	Log           []parentLogEntry
	LogSeq        int64
	LSN           int64
	Epoch         int64
	EpochStart    int64
}

func parentEntry(seq int64) parentLogEntry {
	return parentLogEntry{Seq: seq, Text: "SELECT count(*) FROM kv", User: "old", At: time.Unix(1700000000+seq, 0)}
}

func parentFrame(t *testing.T, rec parentWALRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parentTail is a parent-version history after LSN base: an insert, a
// batched query-log frame, an insert, then a single-entry query-log frame
// as written before batching.
func parentTail(t *testing.T, base int64) [][]byte {
	row := func(i int64) [][]Value { return [][]Value{{IntValue(i), IntValue(i)}} }
	e := parentEntry(6)
	return [][]byte{
		parentFrame(t, parentWALRecord{LSN: base + 1, Kind: WALInsert, Table: "kv", Rows: row(3)}),
		parentFrame(t, parentWALRecord{LSN: base + 2, Kind: WALLog, Entries: []parentLogEntry{parentEntry(4), parentEntry(5)}}),
		parentFrame(t, parentWALRecord{LSN: base + 3, Kind: WALInsert, Table: "kv", Rows: row(4)}),
		parentFrame(t, parentWALRecord{LSN: base + 4, Kind: WALLog, Entry: &e}),
	}
}

// sameKV fails unless got's kv table holds want's rows at want's version.
func sameKV(t *testing.T, got, want *DB) {
	t.Helper()
	rows := func(db *DB) [][]any {
		res, err := db.Exec("SELECT id, v FROM kv ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		return boxed(res)
	}
	if g, w := rows(got), rows(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("kv = %v, want %v", g, w)
	}
	gt, _ := got.Table("kv")
	wt, _ := want.Table("kv")
	if gt.Version() != wt.Version() {
		t.Fatalf("kv version = %d, want %d", gt.Version(), wt.Version())
	}
}

// TestParentFormatDirectoryBoots: a data directory written by a version
// with a query log — a snapshot carrying Log and LogSeq, then WAL frames of
// both WALLog shapes between inserts — boots with the tables and LSN its
// writes describe, and the first boot folds it into a snapshot without a
// log.
func TestParentFormatDirectoryBoots(t *testing.T) {
	ref := NewDB()
	mustExec(t, ref, "CREATE TABLE kv (id int, v int)")
	mustExec(t, ref, "INSERT INTO kv VALUES (1, 1), (2, 2)")
	const snapLSN = 5
	snap := ref.buildSnapshot()
	old := parentSavedDB{FormatVersion: snap.FormatVersion, Tables: snap.Tables,
		Log: []parentLogEntry{parentEntry(1), parentEntry(2), parentEntry(3)}, LogSeq: 3, LSN: snapLSN, Epoch: 1}
	mustExec(t, ref, "INSERT INTO kv VALUES (3, 3)")
	mustExec(t, ref, "INSERT INTO kv VALUES (4, 4)")

	dir := t.TempDir()
	var blob bytes.Buffer
	blob.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&blob).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	wal.WriteString(walHeader)
	for _, p := range parentTail(t, snapLSN) {
		if err := AppendFrame(&wal, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	db, info, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.LSN != snapLSN+4 || info.Records != 4 || db.LastLSN() != snapLSN+4 {
		t.Fatalf("boot: %+v, last LSN %d; want LSN %d from 4 records", info, db.LastLSN(), snapLSN+4)
	}
	sameKV(t, db, ref)

	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	var folded parentSavedDB
	if err := gob.NewDecoder(bytes.NewReader(raw[len(snapshotMagic):])).Decode(&folded); err != nil {
		t.Fatal(err)
	}
	if len(folded.Log) != 0 || folded.LogSeq != 0 || folded.LSN != snapLSN+4 {
		t.Fatalf("folded snapshot: %d log entries, LogSeq %d, LSN %d; want no log at LSN %d",
			len(folded.Log), folded.LogSeq, folded.LSN, snapLSN+4)
	}

	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	again, info, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = again.CloseDurability() }()
	if info.LSN != snapLSN+4 {
		t.Fatalf("second boot at LSN %d, want %d", info.LSN, snapLSN+4)
	}
	sameKV(t, again, ref)
}

// TestApplyReplicatedParentLogFrame: a replica fed by a leader of a
// version with a query log applies its WALLog frames, of both shapes, as
// LSN advances that change no table, and the frames after them still apply.
func TestApplyReplicatedParentLogFrame(t *testing.T) {
	db, _, err := OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.CloseDurability() }()
	db.SetReplicaMode("parent-leader")
	schema := Schema{{Name: "id", Type: TypeInt}, {Name: "v", Type: TypeInt}}
	frames := append([][]byte{parentFrame(t, parentWALRecord{LSN: 1, Kind: WALCreate, Table: "kv", Schema: schema})},
		parentTail(t, 1)...)
	ref := NewDB()
	mustExec(t, ref, "CREATE TABLE kv (id int, v int)")

	for i, p := range frames {
		lsn := int64(i + 1)
		if _, err := db.ApplyReplicated(p); err != nil {
			t.Fatalf("frame %d: %v", lsn, err)
		}
		if got := db.AppliedLSN(); got != lsn {
			t.Fatalf("applied LSN = %d after frame %d", got, lsn)
		}
		switch lsn {
		case 2:
			mustExec(t, ref, "INSERT INTO kv VALUES (3, 3)")
		case 4:
			mustExec(t, ref, "INSERT INTO kv VALUES (4, 4)")
		}
		sameKV(t, db, ref)
	}
}
