package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// shippedArgs are flock-serve's shipped defaults, spelled out so the run
// record shows them; every workload boots with these plus its own.
var shippedArgs = []string{"-wal-sync", "always", "-infer=true", "-rows", strconv.Itoa(customerRows)}

// clockTicksPerSecond is the unit of utime/stime in /proc/<pid>/stat.
// Linux has reported USER_HZ=100 on every architecture Go supports.
const clockTicksPerSecond = 100

// tailBuffer keeps the last few KiB a child wrote, for failure reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// node is one flock-serve child process.
type node struct {
	name string
	url  string
	argv []string
	cmd  *exec.Cmd
	out  *tailBuffer
	// exited is closed once Wait has returned; waitErr is set before that.
	exited  chan struct{}
	waitErr error
}

// cluster is the set of children one workload runs against, plus the
// directory holding their data dirs.
type cluster struct {
	leader    *node
	followers []*node
	dir       string
}

func (c *cluster) nodes() []*node { return append([]*node{c.leader}, c.followers...) }

// liveClusters lets the signal handler and exit paths reach every child
// that is still running.
var liveClusters struct {
	mu  sync.Mutex
	set map[*cluster]struct{}
}

// installSignalCleanup kills all children and removes their data dirs on
// SIGINT/SIGTERM, then exits with the conventional 128+signal code.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		stopAllClusters()
		code := 130
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

func stopAllClusters() {
	liveClusters.mu.Lock()
	all := make([]*cluster, 0, len(liveClusters.set))
	for c := range liveClusters.set {
		all = append(all, c)
	}
	liveClusters.mu.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// reservePorts asks the kernel for n free loopback ports. flock-serve's
// -addr does not report a :0 bind, so the harness picks the ports; they are
// released just before the children bind them.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		held = append(held, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func spawn(name, bin string, argv []string) (*node, error) {
	n := &node{name: name, argv: append([]string{filepath.Base(bin)}, argv...), out: &tailBuffer{}, exited: make(chan struct{})}
	n.cmd = exec.Command(bin, argv...)
	n.cmd.Stdout = n.out
	n.cmd.Stderr = n.out
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		n.waitErr = n.cmd.Wait()
		close(n.exited)
	}()
	return n, nil
}

// kill stops the child and waits until it has ended. SIGKILL is deliberate:
// teardown is not measured, and a database has to survive it anyway.
func (n *node) kill() {
	select {
	case <-n.exited:
		return
	default:
	}
	_ = n.cmd.Process.Kill() // already-exited is the only failure, and then exited closes
	<-n.exited
}

// waitReady polls /readyz until it answers 200, the child dies, or ctx ends.
func (n *node) waitReady(ctx context.Context, hc *http.Client) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-n.exited:
			return n.deathReport()
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w\n%s", n.name, ctx.Err(), n.out)
		case <-tick.C:
		}
	}
}

func (n *node) deathReport() error {
	return fmt.Errorf("%s (pid %d) exited: %v; last output:\n%s", n.name, n.cmd.Process.Pid, n.waitErr, n.out)
}

// startCluster boots the leader and followers for w under workDir and
// waits until all answer /readyz.
func startCluster(ctx context.Context, w *workload, serveBin, workDir string, hc *http.Client) (*cluster, error) {
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	liveClusters.mu.Lock()
	if liveClusters.set == nil {
		liveClusters.set = map[*cluster]struct{}{}
	}
	liveClusters.set[c] = struct{}{}
	liveClusters.mu.Unlock()

	ports, err := reservePorts(1 + w.followers)
	if err != nil {
		c.stop()
		return nil, err
	}
	addr := func(i int) string { return "127.0.0.1:" + strconv.Itoa(ports[i]) }

	args := append([]string{"-addr", addr(0), "-data-dir", filepath.Join(dir, "leader")}, shippedArgs...)
	args = append(args, w.serveArgs...)
	if c.leader, err = spawn("leader", serveBin, args); err != nil {
		c.stop()
		return nil, err
	}
	c.leader.url = "http://" + addr(0)
	if err := c.leader.waitReady(ctx, hc); err != nil {
		c.stop()
		return nil, err
	}
	for i := 1; i <= w.followers; i++ {
		name := "follower" + strconv.Itoa(i)
		f, err := spawn(name, serveBin, []string{
			"-addr", addr(i), "-data-dir", filepath.Join(dir, name),
			"-replica-of", c.leader.url, "-wal-sync", "always", "-infer=true",
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		f.url = "http://" + addr(i)
		c.followers = append(c.followers, f)
	}
	for _, f := range c.followers {
		if err := f.waitReady(ctx, hc); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// stop kills every child, waits for each, and removes the data dirs. It is
// safe to call more than once and from the signal handler.
func (c *cluster) stop() {
	liveClusters.mu.Lock()
	_, live := liveClusters.set[c]
	delete(liveClusters.set, c)
	liveClusters.mu.Unlock()
	if !live {
		return
	}
	for _, n := range c.nodes() {
		if n != nil {
			n.kill()
		}
	}
	_ = os.RemoveAll(c.dir) // best effort: the work dir is git-ignored scratch
}

// dead reports the first child that has exited, with its output tail.
func (c *cluster) dead() error {
	for _, n := range c.nodes() {
		select {
		case <-n.exited:
			return n.deathReport()
		default:
		}
	}
	return nil
}

// cpuTicks sums utime+stime over all children, in clock ticks.
func (c *cluster) cpuTicks() (int64, error) {
	var total int64
	for _, n := range c.nodes() {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading cpu time of %s: %w", n.name, err)
		}
		t, err := parseStatTicks(raw)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", n.name, err)
		}
		total += t
	}
	return total, nil
}

// parseStatTicks extracts utime+stime (fields 14 and 15) from the contents
// of /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatTicks(raw []byte) (int64, error) {
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return 0, errors.New("malformed /proc stat: no ')'")
	}
	fields := strings.Fields(string(raw[end+1:])) // fields[0] is field 3 (state)
	if len(fields) < 13 {
		return 0, errors.New("malformed /proc stat: too few fields")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat: non-numeric cpu times")
	}
	return utime + stime, nil
}

// peakRSSKB is the largest VmHWM (peak resident set) among the children.
func (c *cluster) peakRSSKB() (int64, error) {
	var peak int64
	for _, n := range c.nodes() {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading memory of %s: %w", n.name, err)
		}
		kb, err := parseVmHWM(raw)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", n.name, err)
		}
		if kb > peak {
			peak = kb
		}
	}
	return peak, nil
}

func parseVmHWM(raw []byte) (int64, error) {
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
