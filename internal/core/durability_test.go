package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/governance"
)

// openDurable opens a durable Flock in dir with per-commit fsync disabled
// (tests exercise ordering and recovery, not disk latency).
func openDurable(t *testing.T, dir string) (*Flock, *Durability) {
	t.Helper()
	f, d, err := OpenDir(dir, DurabilityOptions{WALSync: false})
	if err != nil {
		t.Fatal(err)
	}
	f.Access.AssignRole("root", "admin")
	return f, d
}

// TestOpenDirFullLifecycle drives the whole durability loop: data + model
// + audit accumulate, a clean Close folds the WAL, and a reopen recovers
// tables, time-travel history, the model registry and the audit chain.
func TestOpenDirFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	f1, d1 := openDurable(t, dir)
	if _, err := f1.Exec("root", "CREATE TABLE customers (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Exec("root", "INSERT INTO customers VALUES (1, 50.0, 'us'), (2, 30.0, 'eu')"); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Exec("root", "UPDATE customers SET age = age + 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	want, err := f1.Exec("root", "SELECT id, PREDICT(churn, age, region) AS s FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := f1.DB.Table("customers")
	wantVersion := tab.Version()
	wantAudit := f1.Audit.Len()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean shutdown checkpoints: recovery should come from the snapshot.
	f2, d2, err := OpenDir(dir, DurabilityOptions{WALSync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.SnapshotLoaded {
		t.Errorf("recovery after clean shutdown did not load a snapshot: %+v", rec)
	}
	f2.Access.AssignRole("root", "admin")

	// Model registry recovered from the system table, still in production.
	meta, err := metaOf(f2.Models, "churn", 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Stage != StageProduction {
		t.Errorf("recovered stage = %s", meta.Stage)
	}
	got, err := f2.Exec("root", "SELECT id, PREDICT(churn, age, region) AS s FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := boxed(got), boxed(want)
	for i := range wantRows {
		if gotRows[i][1] != wantRows[i][1] {
			t.Fatalf("restored score differs at row %d: %v vs %v", i, gotRows[i][1], wantRows[i][1])
		}
	}

	// Version counter and time travel survive the restart (format v2).
	tab2, err := f2.DB.Table("customers")
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Version() != wantVersion {
		t.Errorf("version = %d, want %d", tab2.Version(), wantVersion)
	}
	res, err := f2.Exec("root", fmt.Sprintf("SELECT age FROM customers VERSION %d WHERE id = 1", wantVersion-1))
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != 50.0 {
		t.Errorf("pre-update age via time travel = %v, want 50", boxed(res)[0][0])
	}

	// Audit chain restored intact and still appending.
	if f2.Audit.Len() < wantAudit {
		t.Errorf("audit entries = %d, want >= %d", f2.Audit.Len(), wantAudit)
	}
	if idx := f2.Audit.Verify(); idx != -1 {
		t.Errorf("restored audit chain broken at %d", idx)
	}

	// Gauges export the durability state.
	g := d2.Gauges()
	for _, k := range []string{"flock_wal_bytes", "flock_checkpoint_age_seconds", "flock_recovery_seconds"} {
		if _, ok := g[k]; !ok {
			t.Errorf("gauge %s missing", k)
		}
	}
}

// TestOpenDirCrashRecovery simulates a crash: no Close, no checkpoint —
// the reopened instance must still hold every acknowledged write, replayed
// from the WAL, and the audit chain.
func TestOpenDirCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	f1, _ := openDurable(t, dir)
	if _, err := f1.Exec("root", "CREATE TABLE kv (id int, v int)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f1.Exec("root", fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f1.Exec("root", "DELETE FROM kv WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon f1 without Close. (The OS file writes are complete;
	// only the process state is lost.)

	f2, d2, err := OpenDir(dir, DurabilityOptions{WALSync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if rec.Records == 0 {
		t.Fatalf("crash recovery replayed nothing: %+v", rec)
	}
	f2.Access.AssignRole("root", "admin")
	res, err := f2.Exec("root", "SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(int64) != 4 {
		t.Fatalf("rows = %v, want 4", boxed(res)[0][0])
	}
	// Reopening again (after the consolidating recovery checkpoint) is
	// idempotent: same state, this time from the snapshot.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	f3, d3, err := OpenDir(dir, DurabilityOptions{WALSync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	f3.Access.AssignRole("root", "admin")
	res, err = f3.Exec("root", "SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(int64) != 4 {
		t.Fatalf("rows after second recovery = %v, want 4", boxed(res)[0][0])
	}
}

// TestOpenDirRejectsTamperedAudit: recovery must refuse an audit file whose
// chain does not verify — restoring a tampered log would defeat the
// tamper-evidence the hash chain exists for.
func TestOpenDirRejectsTamperedAudit(t *testing.T) {
	dir := t.TempDir()
	f1, d1 := openDurable(t, dir)
	f1.Audit.Record("root", "login", "", "ok", true)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the audit file with a forged entry: valid frame, broken chain.
	forged := governance.AuditEntry{Seq: 99, User: "mallory", Action: "deploy", Hash: "bogus"}
	var frame bytes.Buffer
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(forged); err != nil {
		t.Fatal(err)
	}
	if err := engine.AppendFrame(&frame, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	af, err := os.OpenFile(filepath.Join(dir, auditFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	af.Close()

	if _, _, err := OpenDir(dir, DurabilityOptions{}); err == nil {
		t.Fatal("OpenDir accepted a tampered audit chain")
	}
}

// TestDurabilityCheckpointUnderLoad folds the WAL while writes are in
// flight (run with -race): every acknowledged statement must land in
// either the snapshot or the post-rotation log, so the final recovered
// count matches what was committed.
func TestDurabilityCheckpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	f1, d1 := openDurable(t, dir)
	if _, err := f1.Exec("root", "CREATE TABLE kv (id int)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := f1.Exec("root", fmt.Sprintf("INSERT INTO kv VALUES (%d)", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 10; i++ {
		if err := d1.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Crash-reopen (no Close): all 200 acknowledged inserts, exactly once.
	f2, d2, err := OpenDir(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	f2.Access.AssignRole("root", "admin")
	res, err := f2.Exec("root", "SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0].(int64) != 200 {
		t.Fatalf("rows = %v, want 200 (lost or duplicated commits across checkpoints)", boxed(res)[0][0])
	}
	res, err = f2.Exec("root", "SELECT DISTINCT id FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 200 {
		t.Fatalf("distinct ids = %d, want 200 (WAL replay duplicated rows)", res.N)
	}
}

// freshAuditFrame is an audit frame's payload as a fresh gob encoder writes
// it: the type header, then the value.
func freshAuditFrame(t *testing.T, e governance.AuditEntry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(e); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// auditPayloads returns the raw frame payloads of dir's audit.log.
func auditPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, auditFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]byte
	torn, err := engine.ReadFrames(f, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil || torn {
		t.Fatalf("reading audit.log: torn=%t err=%v", torn, err)
	}
	return out
}

// TestAuditFramesUnchanged pins the audit file format across the reused
// encoder: every frame appendAudit writes is byte for byte what a fresh
// gob.Encoder writes for the entry, and an audit.log whose first frames
// were written one fresh encoder per entry, followed by frames from the
// reused encoder, restores and verifies.
func TestAuditFramesUnchanged(t *testing.T) {
	dir := t.TempDir()

	// The older frames: a chain built and framed one fresh encoder each.
	old := governance.NewAuditLog()
	var file bytes.Buffer
	for i := 0; i < 5; i++ {
		e := old.Record("root", "select", "table:t", fmt.Sprintf("SELECT %d | ü", i), i%2 == 0)
		if err := engine.AppendFrame(&file, freshAuditFrame(t, e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, auditFile), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	f1, d1 := openDurable(t, dir)
	if f1.Audit.Len() != 5 {
		t.Fatalf("restored %d audit entries, want 5", f1.Audit.Len())
	}
	mustExecD := func(f *Flock, q string) {
		t.Helper()
		if _, err := f.Exec("root", q); err != nil {
			t.Fatal(err)
		}
	}
	mustExecD(f1, "CREATE TABLE t (id int, name text)")
	mustExecD(f1, "INSERT INTO t VALUES (1, 'a|b'), (2, '日本')")
	for i := 0; i < 200; i++ {
		mustExecD(f1, fmt.Sprintf("SELECT name FROM t WHERE id = %d", i%3))
	}
	f1.Audit.Record("", "", "", "", false) // empty fields
	if _, err := f1.Exec("nobody", "SELECT id FROM t"); err == nil {
		t.Fatal("unauthorized read succeeded")
	}
	f1.Audit.Record("root", "note", "", string(make([]byte, 300)), true)
	want := f1.Audit.Entries()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	payloads := auditPayloads(t, dir)
	if len(payloads) != len(want) {
		t.Fatalf("audit.log holds %d frames, want %d", len(payloads), len(want))
	}
	for i, p := range payloads {
		if fresh := freshAuditFrame(t, want[i]); !bytes.Equal(p, fresh) {
			t.Fatalf("frame %d (%+v) differs from a fresh encoder's:\n got %x\nwant %x", i, want[i], p, fresh)
		}
	}

	f2, d2 := openDurable(t, dir)
	defer d2.Close()
	if got := f2.Audit.Len(); got != len(want) {
		t.Fatalf("reopened audit chain has %d entries, want %d", got, len(want))
	}
	if bad := f2.Audit.Verify(); bad != -1 {
		t.Fatalf("reopened audit chain broken at %d", bad)
	}
}
