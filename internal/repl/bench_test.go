package repl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

// BenchmarkReplicationShip measures the per-frame ship+apply round trip:
// each op commits one row on the leader and drives the follower until it
// has applied it (HTTP batch fetch, replay, one fsync, ack), reported as
// frames/sec.
func BenchmarkReplicationShip(b *testing.B) {
	ldb, _, err := engine.OpenDirDB(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer ldb.CloseDurability()
	l := NewLeader(ldb, Options{})
	mux := http.NewServeMux()
	l.register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if _, err := ldb.Exec("CREATE TABLE bench (id int, v int)"); err != nil {
		b.Fatal(err)
	}

	rdb, _, err := engine.OpenDirDB(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer rdb.CloseDurability()
	rdb.SetReplicaMode(srv.URL)
	f := NewFollower(rdb, srv.URL, FollowerOptions{ID: "bench", PollWait: time.Millisecond})
	if err := f.SyncOnce(context.Background()); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldb.Exec(fmt.Sprintf("INSERT INTO bench VALUES (%d, %d)", i, i)); err != nil {
			b.Fatal(err)
		}
		for rdb.AppliedLSN() < ldb.DurableLSN() {
			if err := f.SyncOnce(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
}

// BenchmarkReplicationQuorum measures quorum-ack commit latency: the gate
// is installed, so each Exec blocks until the configured quorum of live
// followers has applied and acked the frame. followers=N runs N tailing
// followers with quorum=N (every follower must ack). Scheduling-shaped,
// so informational.
func BenchmarkReplicationQuorum(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("followers=%d", n), func(b *testing.B) {
			ldb, _, err := engine.OpenDirDB(b.TempDir(), false)
			if err != nil {
				b.Fatal(err)
			}
			defer ldb.CloseDurability()
			l := NewLeader(ldb, Options{Quorum: n, AckTimeout: 10 * time.Second})
			mux := http.NewServeMux()
			l.register(mux)
			srv := httptest.NewServer(mux)
			defer srv.Close()
			if _, err := ldb.Exec("CREATE TABLE bench (id int)"); err != nil {
				b.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{}, n)
			for i := 0; i < n; i++ {
				rdb, _, err := engine.OpenDirDB(b.TempDir(), false)
				if err != nil {
					b.Fatal(err)
				}
				defer rdb.CloseDurability()
				rdb.SetReplicaMode(srv.URL)
				f := NewFollower(rdb, srv.URL, FollowerOptions{
					ID:       fmt.Sprintf("bench-%d", i),
					PollWait: time.Second,
				})
				go func() { defer func() { done <- struct{}{} }(); f.Run(ctx) }()
			}
			ldb.SetCommitGate(l.Gate)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ldb.Exec(fmt.Sprintf("INSERT INTO bench VALUES (%d)", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ldb.SetCommitGate(nil)
			cancel()
			for i := 0; i < n; i++ {
				<-done
			}
		})
	}
}
