package engine

// Group-commit pinning: concurrent committers must share fsyncs without
// weakening the ack-after-sync invariant — every acknowledged statement
// survives a reopen, exactly once.

import (
	"fmt"
	"sync"
	"testing"
)

// TestGroupCommitConcurrentWriters hammers one table from many goroutines
// under the always-fsync policy and verifies (a) every acknowledged INSERT
// survives a reopen, (b) the group-commit stats show fsyncs covering the
// committed records. Run with -race to pin the leader/follower handoff.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE hits (w int, i int)`); err != nil {
		t.Fatal(err)
	}
	const writers = 16
	const perWriter = 6
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO hits VALUES (%d, %d)", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	syncs, records := db.WALGroupCommitStats()
	if syncs == 0 {
		t.Fatal("no group-commit fsyncs recorded under -wal-sync always")
	}
	if records < writers*perWriter {
		t.Fatalf("group-commit stats cover %d records, want >= %d", records, writers*perWriter)
	}
	t.Logf("group commit: %d records over %d fsyncs (%.1f records/fsync)",
		records, syncs, float64(records)/float64(syncs))

	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, info, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	res, err := re.Exec(`SELECT count(*) FROM hits`)
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d (recovery: %+v)", got, writers*perWriter, info)
	}
	// Exactly once: no duplicated (w, i) pairs.
	res, err = re.Exec(`SELECT count(*) FROM (SELECT DISTINCT w, i FROM hits) d`)
	if err != nil {
		// Subqueries may be unsupported; distinct-count the pairs directly.
		res, err = re.Exec(`SELECT count(*) AS n FROM hits GROUP BY w, i ORDER BY n DESC LIMIT 1`)
		if err != nil {
			t.Fatal(err)
		}
		if got := boxed(res)[0][0].(int64); got != 1 {
			t.Fatalf("a committed row was applied %d times", got)
		}
		return
	}
	if got := boxed(res)[0][0].(int64); got != writers*perWriter {
		t.Fatalf("distinct pairs %d, want %d", got, writers*perWriter)
	}
}

// TestGroupCommitUnderCheckpoint interleaves concurrent committers with
// checkpoints: rotation swaps the log under the exclusive commit barrier,
// and every in-flight waiter must still learn its frame became durable
// (the pre-rotation sync covers it). Everything must survive a reopen.
func TestGroupCommitUnderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE ck (v int)`); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 5
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter+8)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO ck VALUES (%d)", w*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := db.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	res, err := re.Exec(`SELECT count(*) FROM ck`)
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", got, writers*perWriter)
	}
}
