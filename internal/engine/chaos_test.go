package engine

// Chaos suite for the durability plane: concurrent committers and a
// background checkpointer run under a randomized fault schedule (failed
// fsyncs, torn writes, failed checkpoint renames, failed snapshot writes),
// then the faults are lifted and the invariants checked. The contract under
// any schedule:
//
//  1. No acknowledged write is ever lost: every INSERT whose Exec returned
//     nil is present after a cold restart.
//  2. The instance ends healthy or cleanly degraded — a degraded instance
//     still serves reads, fails writes fast with ErrReadOnly, and heals
//     through ReopenWAL. Never a corrupt data directory.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		point string
		spec  fault.Spec
	}{
		// Let some commits land first (After), then fail fsyncs at random:
		// the poisoned-WAL / degraded-mode path.
		{"wal.fsync", fault.Spec{Prob: 0.05, After: 40}},
		// Torn frames: the append persists half the frame then errors; the
		// WAL either rolls the tear back or poisons itself.
		{"wal.write", fault.Spec{Prob: 0.05, After: 40, Partial: true}},
		// The third log rotation fails mid-checkpoint.
		{"checkpoint.rename", fault.Spec{After: 2, Count: 1}},
		// Snapshot writes fail at random; checkpoints error but rotated
		// segments keep the state recoverable.
		{"snapshot.write", fault.Spec{Prob: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) { runChaos(t, tc.point, tc.spec) })
	}
}

func runChaos(t *testing.T, point string, spec fault.Spec) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, true) // sync per commit: acked means fsynced
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE chaos (id int)")

	fault.Reset()
	fault.Seed(1)
	fault.Enable(point, spec)
	defer fault.Reset()

	const writers, perWriter = 4, 50
	var mu sync.Mutex
	acked := map[int64]bool{}

	stop := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = db.Checkpoint() // failures are expected under the schedule
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO chaos VALUES (%d)", id)); err == nil {
					mu.Lock()
					acked[id] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ckptWG.Wait()
	fault.Reset()

	// End state: healthy, or degraded with the full contract.
	if down, reason := db.Degraded(); down {
		if reason == "" {
			t.Error("degraded with empty reason")
		}
		if _, err := db.Exec("SELECT count(*) FROM chaos"); err != nil {
			t.Fatalf("degraded instance refused a read: %v", err)
		}
		if _, err := db.Exec("INSERT INTO chaos VALUES (-1)"); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("degraded write error = %v, want ErrReadOnly", err)
		}
		if err := db.ReopenWAL(); err != nil {
			t.Fatalf("ReopenWAL: %v", err)
		}
		if down, _ := db.Degraded(); down {
			t.Fatal("still degraded after successful ReopenWAL")
		}
	}

	// Healed (or never degraded): writes flow again.
	mustExec(t, db, "INSERT INTO chaos VALUES (999999)")
	if err := db.CloseDurability(); err != nil {
		t.Fatalf("CloseDurability: %v", err)
	}

	// Cold restart: every acknowledged write must be present.
	db2, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatalf("recovery after chaos: %v", err)
	}
	res, err := db2.Exec("SELECT id FROM chaos")
	if err != nil {
		t.Fatal(err)
	}
	present := map[int64]bool{}
	for _, row := range boxed(res) {
		present[row[0].(int64)] = true
	}
	lost := 0
	for id := range acked {
		if !present[id] {
			lost++
			if lost <= 5 {
				t.Errorf("acked id %d lost after recovery", id)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked writes lost (point %s)", lost, len(acked), point)
	}
	if !present[999999] {
		t.Fatal("post-chaos sentinel write lost")
	}
	t.Logf("%s: %d/%d inserts acked, %d faults fired", point, len(acked), writers*perWriter, fault.Triggered(point))
}

// TestPoisonedWALDegradesAndReopens pins the degraded-mode contract
// deterministically: the first fsync failure poisons the WAL, the database
// flips to read-only, reads keep serving, and ReopenWAL (after the disk
// "recovers") folds memory into a fresh snapshot and restores writes —
// without losing the pre-fault data.
func TestPoisonedWALDegradesAndReopens(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id int)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")

	fault.Reset()
	fault.Enable("wal.fsync", fault.Spec{})
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("insert under failing fsync should error")
	} else if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("insert error = %v, want ErrWALPoisoned", err)
	}
	fault.Reset()

	down, reason := db.Degraded()
	if !down {
		t.Fatal("fsync failure did not degrade the database")
	}
	if reason == "" {
		t.Fatal("degraded without a reason")
	}
	// Reads keep serving; writes fail fast with the typed sentinel.
	if got := countOf(t, db, "SELECT count(*) FROM t"); got < 1 {
		t.Fatalf("degraded read lost rows: %d", got)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (3)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded insert = %v, want ErrReadOnly", err)
	}
	if _, err := db.Exec("CREATE TABLE t2 (id int)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded DDL = %v, want ErrReadOnly", err)
	}

	if err := db.ReopenWAL(); err != nil {
		t.Fatalf("ReopenWAL: %v", err)
	}
	if down, _ := db.Degraded(); down {
		t.Fatal("still degraded after ReopenWAL")
	}
	mustExec(t, db, "INSERT INTO t VALUES (4)")
	want := countOf(t, db, "SELECT count(*) FROM t")
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	db2, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, db2, "SELECT count(*) FROM t"); got != want {
		t.Fatalf("recovered %d rows, want %d", got, want)
	}
}

// TestReopenWALWhileHealthy is the no-op-ish path: reopening a healthy
// instance is allowed (operators may run it preventively) and loses
// nothing.
func TestReopenWALWhileHealthy(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id int)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := db.ReopenWAL(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, db2, "SELECT count(*) FROM t"); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
}
