package core

// Durability.Reopen: the governance-layer recovery path for a degraded
// (poisoned-WAL) instance — gauges flip 1 → 0, writes resume, and nothing
// acked is lost across the fault, the reopen, and a cold restart.

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
)

func TestDurabilityReopenRecoversDegraded(t *testing.T) {
	dir := t.TempDir()
	f, d, err := OpenDir(dir, DurabilityOptions{WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Access.AssignRole("root", "admin")
	if _, err := f.Exec("root", "CREATE TABLE t (id int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if g := d.Gauges(); g["flock_degraded_mode"] != 0 || g["flock_wal_poisoned"] != 0 {
		t.Fatalf("healthy gauges: %v", g)
	}

	fault.Reset()
	fault.Enable("wal.fsync", fault.Spec{})
	if _, err := f.Exec("root", "INSERT INTO t VALUES (2)"); !errors.Is(err, engine.ErrWALPoisoned) {
		t.Fatalf("insert under failing fsync = %v, want ErrWALPoisoned", err)
	}
	fault.Reset()

	if g := d.Gauges(); g["flock_degraded_mode"] != 1 || g["flock_wal_poisoned"] != 1 {
		t.Fatalf("degraded gauges: %v", g)
	}
	if _, err := f.Exec("root", "INSERT INTO t VALUES (3)"); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("degraded insert = %v, want ErrReadOnly", err)
	}

	if err := d.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if g := d.Gauges(); g["flock_degraded_mode"] != 0 || g["flock_wal_poisoned"] != 0 {
		t.Fatalf("post-reopen gauges: %v", g)
	}
	if _, err := f.Exec("root", "INSERT INTO t VALUES (4)"); err != nil {
		t.Fatalf("post-reopen insert: %v", err)
	}
	// The audit chain survived the whole episode intact.
	if idx := f.Audit.Verify(); idx != -1 {
		t.Fatalf("audit chain corrupted at %d", idx)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart: acked rows 1 and 4 present (plus row 2, installed
	// before its failed fsync and preserved by the reopen snapshot).
	f2, d2, err := OpenDir(dir, DurabilityOptions{WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	f2.Access.AssignRole("root", "admin")
	res, err := f2.Exec("root", "SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n := boxed(res)[0][0].(int64); n != 3 {
		t.Fatalf("recovered %d rows, want 3", n)
	}
}
