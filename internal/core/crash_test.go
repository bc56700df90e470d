package core

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// SIGKILL crash-recovery test (the PR's acceptance criterion): a child
// process runs a mixed INSERT/UPDATE/DELETE workload against a durable
// directory with per-commit fsync, acknowledging each committed statement
// on stdout; the parent SIGKILLs it mid-workload and then recovers the
// directory in-process. Every acknowledged statement must be present
// exactly once, and since the workload is deterministic the recovered
// state must equal the state after N statements for some N >= last ack
// (at most one in-flight statement can have committed unacknowledged).

const crashDirEnv = "FLOCK_CRASH_DIR"

// crashOp applies statement n of the deterministic workload to a model of
// the kv table (id -> v), mirroring exactly what crashChild executes.
func crashOp(n int, kv map[int]int) string {
	switch n % 3 {
	case 0:
		kv[n] = n
		return fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", n, n)
	case 1:
		for id := range kv {
			kv[id]++
		}
		return "UPDATE kv SET v = v + 1 WHERE id >= 0"
	default:
		delete(kv, n-8) // ops ≡ 2 mod 3 delete the insert from op n-8 (≡ 0 mod 3)
		return fmt.Sprintf("DELETE FROM kv WHERE id = %d", n-8)
	}
}

// TestCrashWorkloadChild is the re-exec helper: under the parent's env var
// it opens the durable directory and applies the workload until killed. It
// is skipped in a normal test run.
func TestCrashWorkloadChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash-test child helper (driven by TestCrashRecoverySIGKILL)")
	}
	f, _, err := OpenDir(dir, DurabilityOptions{WALSync: true})
	if err != nil {
		fmt.Printf("childerr %v\n", err)
		return
	}
	f.Access.AssignRole("root", "admin")
	if _, err := f.Exec("root", "CREATE TABLE kv (id int, v int)"); err != nil {
		fmt.Printf("childerr %v\n", err)
		return
	}
	fmt.Println("ready")
	model := map[int]int{}
	for n := 0; n < 100000; n++ {
		stmt := crashOp(n, model)
		if _, err := f.Exec("root", stmt); err != nil {
			fmt.Printf("childerr op %d: %v\n", n, err)
			return
		}
		// The statement's WAL record is fsynced: acknowledge it. The parent
		// kills us at an arbitrary point in this loop.
		fmt.Printf("ack %d\n", n)
	}
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process and fsyncs per statement")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashWorkloadChild$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acknowledgements until enough statements have committed, then
	// SIGKILL mid-workload; keep draining so no ack written before the kill
	// is lost in the pipe.
	const killAfter = 40
	acks := make(chan int, 1024)
	scanErr := make(chan error, 1)
	go func() {
		defer close(acks)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if rest, ok := strings.CutPrefix(line, "ack "); ok {
				n, err := strconv.Atoi(rest)
				if err != nil {
					scanErr <- fmt.Errorf("bad ack line %q", line)
					return
				}
				acks <- n
			} else if strings.HasPrefix(line, "childerr") {
				scanErr <- fmt.Errorf("child failed: %s", line)
				return
			}
		}
		scanErr <- sc.Err()
	}()

	lastAck := -1
	killed := false
	timeout := time.After(2 * time.Minute)
	for !killed {
		select {
		case n, ok := <-acks:
			if !ok {
				t.Fatal("child exited before enough statements committed")
			}
			if n != lastAck+1 {
				t.Fatalf("ack %d after %d (out of order)", n, lastAck)
			}
			lastAck = n
			if lastAck >= killAfter {
				if err := cmd.Process.Kill(); err != nil { // SIGKILL
					t.Fatal(err)
				}
				killed = true
			}
		case err := <-scanErr:
			t.Fatalf("child stream ended early (last ack %d): %v", lastAck, err)
		case <-timeout:
			_ = cmd.Process.Kill()
			t.Fatalf("child made no progress (last ack %d)", lastAck)
		}
	}
	// Drain the pipe: acks already written when the kill landed still count.
	for n := range acks {
		if n != lastAck+1 {
			t.Fatalf("ack %d after %d (out of order)", n, lastAck)
		}
		lastAck = n
	}
	_ = cmd.Wait() // reap; exit status is the kill signal

	// Recover the directory in-process and compare against the model. The
	// child was killed after acknowledging lastAck; at most one further
	// statement may have committed without being acknowledged.
	f, d, err := OpenDir(dir, DurabilityOptions{WALSync: true})
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer d.Close()
	f.Access.AssignRole("root", "admin")
	res, err := f.Exec("root", "SELECT id, v FROM kv ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, row := range boxed(res) {
		id := int(row[0].(int64))
		if _, dup := got[id]; dup {
			t.Fatalf("duplicate id %d after recovery (WAL replay not idempotent)", id)
		}
		got[id] = int(row[1].(int64))
	}

	matches := func(n int) bool {
		model := map[int]int{}
		for i := 0; i <= n; i++ {
			crashOp(i, model)
		}
		if len(model) != len(got) {
			return false
		}
		for id, v := range model {
			if got[id] != v {
				return false
			}
		}
		return true
	}
	if !matches(lastAck) && !matches(lastAck+1) {
		t.Fatalf("recovered state matches neither op %d nor op %d (last ack %d, %d rows)",
			lastAck, lastAck+1, lastAck, len(got))
	}

	// Retained time-travel versions are queryable after the crash.
	tab, err := f.DB.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	cur := tab.Version()
	oldest := cur
	for ; oldest > 0; oldest-- {
		if _, err := f.Exec("root", fmt.Sprintf("SELECT count(*) FROM kv VERSION %d", oldest-1)); err != nil {
			break
		}
	}
	if oldest == cur {
		t.Fatalf("no version before the current %d is queryable after recovery", cur)
	}
}
