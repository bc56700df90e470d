// Command bench is flock-bench: it builds the shipped cmd/flock-serve,
// boots it as a child process per workload, drives it through
// pkg/flockclient over loopback in a closed loop, checks every response,
// and prints end-to-end and per-layer metrics by name and unit. See
// README.md for the workloads and the metric glossary, and ../BENCHMARK.json
// for the contract.
//
//	go -C bench run .                                    # all six workloads
//	go -C bench run . -workload scan_agg -seed 2 -out r.json
//	go -C bench run . -compare a.json b.json
//	bash bench/run.sh --workload short_read --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one run of one workload; the contract allows 180 s.
const runTimeout = 170 * time.Second

// environment records where the numbers were taken.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	DataDirFS  string  `json:"data_dir_fs"`
	Commit     string  `json:"commit"`
	BuildS     float64 `json:"build_s"`
	WindowS    float64 `json:"window_s"`
}

func (e environment) String() string {
	return fmt.Sprintf("commit %s, %d cpus (GOMAXPROCS %d, %d clients), %s, linux %s, data on %s, %gs windows",
		e.Commit, e.NProc, e.GOMAXPROCS, e.Clients, e.GoVersion, e.Kernel, e.DataDirFS, e.WindowS)
}

// fsNames maps statfs magic numbers to names for the common filesystems.
var fsNames = map[int64]string{
	0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
	0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func gather(benchDir, workDir string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clientCount(),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown", DataDirFS: fsType(workDir),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	// The driver's checkout is not a git repository; then the commit stays
	// unknown.
	if out, err := exec.Command("git", "-C", benchDir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// findBenchDir locates this package's directory: the working directory
// under `go -C bench run .` and run.sh, or ./bench from the repo root.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module repro/bench\n") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/ (no go.mod of module repro/bench found)")
}

// buildServe builds the real cmd/flock-serve from the checkout's sources.
func buildServe(benchDir, workDir string) (string, time.Duration, error) {
	bin := filepath.Join(workDir, "bin", "flock-serve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/flock-serve")
	cmd.Dir = benchDir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building flock-serve: %w", err)
	}
	return bin, time.Since(t0), nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "drives every constant, key and inserted row")
		seconds      = flag.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", -1, "0: end-to-end window only, 1: traced phase and probes only, -1: both")
		repeat       = flag.Int("repeat", 1, "runs per workload, for spreads in -compare")
		out          = flag.String("out", "", "write the report (and <out>.spans.jsonl) here")
		compare      = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()

	benchDir, err := findBenchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bench benchmarkFile
	if err := readJSON(filepath.Join(benchDir, "..", "BENCHMARK.json"), &bench); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		var a, b report
		if err := errors.Join(readJSON(flag.Arg(0), &a), readJSON(flag.Arg(1), &b)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if compareReports(os.Stdout, &a, &b, &bench) {
			return 1
		}
		return 0
	}

	var todo []*workload
	if *workloadName == "all" {
		todo = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds <= 0 {
		*seconds = bench.RunSeconds
	}

	workDir, err := filepath.Abs(filepath.Join(benchDir, "..", ".bench_build"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runDir := filepath.Join(workDir, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	serveBin, buildTime, err := buildServe(benchDir, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	installSignalCleanup()
	defer stopAllClusters()

	rep := report{Env: gather(benchDir, runDir)}
	rep.Env.BuildS = buildTime.Seconds()
	rep.Env.WindowS = float64(*seconds)
	fmt.Println(rep.Env)

	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		e2e: *trace != 1, trace: *trace != 0,
		serveBin: serveBin, workDir: runDir,
	}
	if *trace == 1 {
		// Alone, the traced phase runs half a window: per-layer medians
		// need fewer samples than an end-to-end p95, and the probes that
		// follow take a few seconds of their own.
		cfg.window = max(cfg.window/2, time.Second)
	}
	if *out != "" && cfg.trace {
		cfg.spansOut = strings.TrimSuffix(*out, ".json") + ".spans.jsonl"
	}

	ok := true
	for _, w := range todo {
		for i := 0; i < *repeat; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
			res, err := runWorkload(ctx, w, cfg)
			cancel()
			if err != nil {
				stopAllClusters()
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printRun(os.Stdout, res)
			rep.Runs = append(rep.Runs, res)
			ok = ok && res.Correct
		}
	}

	if *out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if len(rep.Runs) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		r := rep.Runs[0]
		metrics := r.EndToEnd
		if *trace == 1 {
			metrics = r.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}
