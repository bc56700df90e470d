package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// report is what -out writes and -compare reads: the environment the runs
// were taken in, and every run.
type report struct {
	Env  environment  `json:"environment"`
	Runs []*runResult `json:"runs"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (end-to-end metric × workload) row.
const (
	verdictWithin     = "within bound"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved (spread > bound)"
)

// verdict judges b against a for one metric. worse is how far b's median
// lies on the wrong side of a's, as a share of a's; spread is the wider of
// the two sides' quartile distances over their medians. A spread beyond
// the bound means the runs cannot tell a change of that size from noise.
func verdict(a, b []float64, better string, bound float64) (worse, spread float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > bound:
		v = verdictUnresolved
	case worse > bound:
		v = verdictRegression
	default:
		v = verdictWithin
	}
	return worse, spread, v
}

// valuesOf collects one metric over every run of one workload.
func valuesOf(r *report, workload, name string, layer bool) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload {
			continue
		}
		set := run.EndToEnd
		if layer {
			set = run.PerLayer
		}
		if m, ok := set[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareReports prints one row per (end-to-end metric × workload) with a
// verdict, then the per-layer medians side by side as information only.
// It reports whether any row regressed.
func compareReports(w io.Writer, a, b *report, bench *benchmarkFile) (regressed bool) {
	fmt.Fprintf(w, "A: %s\nB: %s\n\n", a.Env, b.Env)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tspread\tbound\truns\tverdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name, false), valuesOf(b, wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, spread, v := verdict(va, vb, m.Better, m.Bound)
			regressed = regressed || v == verdictRegression
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, median(va), median(vb), worse*100, spread*100, m.Bound*100, len(va), len(vb), v)
		}
	}
	tw.Flush()

	fmt.Fprintln(w, "\nper-layer medians (information only):")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tdelta")
	for _, wl := range bench.Workloads {
		for _, m := range bench.PerLayer {
			va, vb := valuesOf(a, wl.Name, m.Name, true), valuesOf(b, wl.Name, m.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 {
				continue // the layer is idle on this workload
			}
			delta := "n/a"
			if ma != 0 {
				delta = fmt.Sprintf("%+.1f%%", (mb-ma)/ma*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%s\n", wl.Name, m.Name, m.Unit, ma, mb, delta)
		}
	}
	tw.Flush()
	return regressed
}

// printRun prints one run's metrics by name with units and sample counts.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n== %s (seed %d): attempted %d, failed %d, correct %t\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, argv := range r.Argv {
		fmt.Fprintf(w, "   argv: %v\n", argv)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if r.EndToEnd != nil {
		fmt.Fprintf(tw, "end to end\t(%d clients, %d latency samples, %d beyond p95 in its slice)\t\n", r.Clients, r.Samples, r.BeyondP95)
		for _, d := range endToEndMetrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, r.EndToEnd[d.name].Value, d.unit)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintln(tw, "per layer\t\t")
		names := make([]string, 0, len(r.PerLayer))
		for k := range r.PerLayer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", k, r.PerLayer[k].Value, r.PerLayer[k].Unit)
		}
	}
	tw.Flush()
}
