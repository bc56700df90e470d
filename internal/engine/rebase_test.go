package engine

// ReopenWAL, PromoteToLeader and BootstrapReplica share one transition,
// rebaseLocked: publish a snapshot, discard the old log, retire every log
// file, start a fresh one. These tests pin the state each caller leaves in
// the data directory, the error policy for a log file that cannot be
// retired, and the all-or-nothing contract of the bootstrap's durable
// write under its failpoints.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
)

// dirState is what a data directory must recover to: the ids in table t,
// the last LSN and the leadership epoch.
type dirState struct {
	ids   string
	lsn   int64
	epoch int64
}

// stateOf reads db's state without executing a statement, so reading it
// cannot move the LSN it reads.
func stateOf(t *testing.T, db *DB) dirState {
	t.Helper()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	cols, _, _, err := tbl.SnapshotAt(tbl.Version())
	if err != nil {
		t.Fatal(err)
	}
	ids := slices.Clone(cols[0].Ints)
	slices.Sort(ids)
	return dirState{ids: fmt.Sprint(ids), lsn: db.LastLSN(), epoch: db.Epoch()}
}

// openWithSegment opens a durable DB on dir holding table t with rows in a
// rotated segment and in the live log.
func openWithSegment(t *testing.T, dir string) *DB {
	t.Helper()
	db, _, err := OpenDirDB(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id int)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	rotateWAL(t, db)
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	return db
}

// promotedLeader returns a leader at epoch 2 whose checkpoint snapshot
// (the bootstrap image, also returned) is followed by more frames.
func promotedLeader(t *testing.T) (*DB, []byte) {
	t.Helper()
	leader, _, err := OpenDirDB(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = leader.CloseDurability() })
	leader.SetReplicaMode("test-old-leader")
	if _, err := leader.PromoteToLeader(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, leader, "CREATE TABLE t (id int)")
	mustExec(t, leader, "INSERT INTO t VALUES (100), (101)")
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, leader, "INSERT INTO t VALUES (102)")
	blob, _, err := leader.SnapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	return leader, blob
}

// dirNames lists a data directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// loadSnapshotFile restores dir's snapshot file into a fresh DB.
func loadSnapshotFile(t *testing.T, dir string) *DB {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db := NewDB()
	if err := db.LoadSnapshot(f); err != nil {
		t.Fatal(err)
	}
	return db
}

// firstFrame reads the first record of dir's live log (nil when empty).
func firstFrame(t *testing.T, dir string) *WALRecord {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var first *WALRecord
	if _, err := readWAL(f, func(rec *WALRecord, _ []byte) error {
		if first == nil {
			first = rec
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return first
}

// TestRebasePostState pins the directory every rebase leaves behind: only
// snapshot.flk and wal.log, a fresh log continuing at the snapshot's LSN,
// and a state OpenDirDB reproduces exactly.
func TestRebasePostState(t *testing.T) {
	leader, blob := promotedLeader(t)
	insert := func(t *testing.T, db *DB) { mustExec(t, db, "INSERT INTO t VALUES (50)") }

	rows := []struct {
		name string
		// rebase drives one transition on db, which openWithSegment
		// opened on dir.
		rebase func(t *testing.T, db *DB, dir string)
		// next appends the first frame after the transition; nil when the
		// transition wrote it (promotion's WALEpoch record).
		next  func(t *testing.T, db *DB)
		epoch int64
	}{
		{
			name: "reopen/healthy",
			rebase: func(t *testing.T, db *DB, _ string) {
				if err := db.ReopenWAL(); err != nil {
					t.Fatal(err)
				}
			},
			next:  insert,
			epoch: 1,
		},
		{
			name: "reopen/poisoned",
			rebase: func(t *testing.T, db *DB, _ string) {
				fault.Enable("wal.fsync", fault.Spec{})
				_, err := db.Exec("INSERT INTO t VALUES (4)")
				fault.Reset()
				if !errors.Is(err, ErrWALPoisoned) {
					t.Fatalf("insert under failing fsync: %v, want ErrWALPoisoned", err)
				}
				if down, _ := db.Degraded(); !down {
					t.Fatal("fsync failure did not degrade the database")
				}
				if err := db.ReopenWAL(); err != nil {
					t.Fatal(err)
				}
			},
			next:  insert,
			epoch: 1,
		},
		{
			// A log file that cannot be retired fails the reopen and leaves
			// the DB degraded; once it is gone a retry completes the rebase.
			name: "reopen/unretirable",
			rebase: func(t *testing.T, db *DB, dir string) {
				blocker := filepath.Join(dir, segName(1))
				if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := db.ReopenWAL(); err == nil {
					t.Fatal("ReopenWAL succeeded with an unretirable segment in the data directory")
				}
				if down, _ := db.Degraded(); !down {
					t.Fatal("failed retirement did not degrade the database")
				}
				if _, err := db.Exec("INSERT INTO t VALUES (4)"); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("write after failed retirement: %v, want ErrReadOnly", err)
				}
				if err := os.RemoveAll(blocker); err != nil {
					t.Fatal(err)
				}
				if err := db.ReopenWAL(); err != nil {
					t.Fatal(err)
				}
			},
			next:  insert,
			epoch: 1,
		},
		{
			name: "promote",
			rebase: func(t *testing.T, db *DB, _ string) {
				db.SetReplicaMode("test-leader")
				if _, err := db.PromoteToLeader(); err != nil {
					t.Fatal(err)
				}
			},
			epoch: 2,
		},
		{
			name: "bootstrap",
			rebase: func(t *testing.T, db *DB, _ string) {
				db.SetReplicaMode("test-leader")
				if err := db.BootstrapReplica(blob); err != nil {
					t.Fatal(err)
				}
			},
			next: func(t *testing.T, db *DB) {
				_, payloads := collectSince(t, leader, db.LastLSN(), 1<<20)
				for _, p := range payloads {
					if _, err := db.ApplyReplicated(p); err != nil {
						t.Fatal(err)
					}
				}
			},
			epoch: 2,
		},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			db := openWithSegment(t, dir)
			tc.rebase(t, db, dir)
			if down, reason := db.Degraded(); down {
				t.Fatalf("degraded after the rebase: %s", reason)
			}

			if got := dirNames(t, dir); !slices.Equal(got, []string{snapshotFile, walFile}) {
				t.Fatalf("data directory holds %v, want exactly [%s %s]", got, snapshotFile, walFile)
			}
			snapLSN := loadSnapshotFile(t, dir).replayLSN
			if tc.next != nil {
				if got := db.LastLSN(); got != snapLSN {
					t.Fatalf("fresh log at LSN %d, snapshot covers %d", got, snapLSN)
				}
				tc.next(t, db)
			}
			first := firstFrame(t, dir)
			if first == nil || first.LSN != snapLSN+1 {
				t.Fatalf("first frame after the rebase = %+v, want LSN %d", first, snapLSN+1)
			}
			if tc.next == nil && first.Kind != WALEpoch {
				t.Fatalf("first frame after promotion has kind %d, want the WALEpoch record", first.Kind)
			}

			want := stateOf(t, db)
			if want.epoch != tc.epoch {
				t.Fatalf("epoch %d after the rebase, want %d", want.epoch, tc.epoch)
			}
			if err := db.CloseDurability(); err != nil {
				t.Fatal(err)
			}
			re, _, err := OpenDirDB(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer re.CloseDurability()
			if got := stateOf(t, re); got != want {
				t.Fatalf("recovered %+v, want %+v", got, want)
			}
		})
	}
}

// TestBootstrapReplicaFailpoints arms each stage of the bootstrap's durable
// snapshot write once: the call must fail and leave the replica's rows, LSN
// and epoch as they were, in memory and after a reopen of its directory,
// and a retry with the point disarmed must adopt the leader's snapshot.
func TestBootstrapReplicaFailpoints(t *testing.T) {
	_, blob := promotedLeader(t)
	image := NewDB()
	if err := image.LoadSnapshot(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	adopted := stateOf(t, image)

	for _, point := range []string{"bootstrap.write", "bootstrap.fsync", "bootstrap.rename"} {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			replica := openWithSegment(t, dir)
			replica.SetReplicaMode("test-leader")
			before := stateOf(t, replica)

			fault.Enable(point, fault.Spec{Count: 1})
			if err := replica.BootstrapReplica(blob); err == nil {
				t.Fatalf("bootstrap succeeded with %s armed", point)
			}
			if n := fault.Triggered(point); n != 1 {
				t.Fatalf("%s fired %d times, want 1", point, n)
			}
			fault.Reset()
			if got := stateOf(t, replica); got != before {
				t.Fatalf("failed bootstrap moved the replica: %+v, want %+v", got, before)
			}
			if down, reason := replica.Degraded(); down {
				t.Fatalf("failed snapshot write degraded the replica: %s", reason)
			}
			for _, name := range dirNames(t, dir) {
				if strings.Contains(name, ".tmp-") {
					t.Fatalf("failed bootstrap left %s behind", name)
				}
			}
			if err := replica.CloseDurability(); err != nil {
				t.Fatal(err)
			}

			re, _, err := OpenDirDB(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer re.CloseDurability()
			if got := stateOf(t, re); got != before {
				t.Fatalf("reopened after a failed bootstrap: %+v, want %+v", got, before)
			}
			re.SetReplicaMode("test-leader")
			if err := re.BootstrapReplica(blob); err != nil {
				t.Fatalf("retry with %s disarmed: %v", point, err)
			}
			if got := stateOf(t, re); got != adopted {
				t.Fatalf("retried bootstrap landed on %+v, want the leader's %+v", got, adopted)
			}
		})
	}
}
