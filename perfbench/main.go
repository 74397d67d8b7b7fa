// Command perfbench is the repository's end-to-end benchmark. It drives
// the recoverable-request stack only through its public API and prints
// every metric by name with its unit; its last line of output is one
// JSON object with the fields "correct", "attempted", "failed" and
// "metrics".
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload request-reply --seed 1 --seconds 15 --trace 0
//
// --workload is request-reply, backlog, crash-recover, or all (every
// workload in turn, for a person reading the output). --trace 0 reports
// the end-to-end metrics; --trace 1 wraps the stack's seams, records
// spans in alternate rounds, and reports the per-layer metrics. The seed
// generates every rid and body the workload sends.
//
// BENCHMARK.json at the repository root lists the metrics, and
// perfbench/records.json says what each workload exercises and bypasses
// and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (see records.json for the workload's operation).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"stall_ms", "ms"},
}

// perLayer are the metrics of single layers and phases, reported by the
// traced run. A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"qservice.enqueue_us_p50", "us"},
	{"qservice.enqueue_us_p99", "us"},
	{"qservice.dequeue_us_p50", "us"},
	{"qservice.dequeue_us_p99", "us"},
	{"core.qm_calls_per_request", "count"},
	{"core.handler_us", "us"},
	{"core.server_aborts_per_request", "count"},
	{"replica.ship_us_p50", "us"},
	{"replica.ship_us_p99", "us"},
	{"replica.ships_per_request", "count"},
	{"replica.ship_bytes_per_request", "bytes"},
	{"wal.write_us_p50", "us"},
	{"wal.write_us_p99", "us"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_us_p99", "us"},
	{"wal.syncs_per_request", "count"},
	{"wal.bytes_per_request", "bytes"},
	{"wal.group_size_mean", "count"},
	{"wal.group_wait_ns_p50", "ns"},
	{"wal.group_wait_ns_p99", "ns"},
	{"txn.commits_per_request", "count"},
	{"txn.commit_ns_p50", "ns"},
	{"txn.commit_ns_p99", "ns"},
	{"lock.waits_per_request", "count"},
	{"queue.shard_lock_wait_ns_per_request", "ns"},
	{"queue.fastpath_hit_ratio", "ratio"},
	{"queue.enqueue_stalls", "count"},
	{"burst_fill_ms", "ms"},
	{"burst_drain_ms", "ms"},
	{"recovery.wal_bytes", "bytes"},
	{"storage.snapshot_bytes", "bytes"},
	{"recovery.replay_mb_s", "MB/s"},
	{"replay_open_ms", "ms"},
	{"snapshot_open_ms", "ms"},
	{"checkpoint_stall_ms", "ms"},
	{"queue.checkpoint_ms", "ms"},
	{"queue.checkpoint_stall_ratio", "ratio"},
	{"ledger.clerk_us", "us"},
	{"ledger.qservice_us", "us"},
	{"ledger.handler_us", "us"},
	{"ledger.replica_us", "us"},
	{"ledger.wal_sync_us", "us"},
	{"ledger.wal_write_us", "us"},
	{"ledger.transceive_us", "us"},
	{"unattributed_us", "us"},
	{"tracing_overhead_us", "us"},
}

// phaseMetrics are the issue-named phase timings of backlog and
// crash-recover. They are per-layer metrics (a workload that has no such
// phase reports 0), and the untraced run also prints them by name.
var phaseMetrics = []string{"burst_fill_ms", "burst_drain_ms", "replay_open_ms", "snapshot_open_ms", "checkpoint_stall_ms"}

// ledgerTolerance is the share of the mean Transceive by which the
// ledger's layer means may miss it before the traced run fails.
const ledgerTolerance = 0.05

// runConfig is what every workload is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for node state, removed afterwards
	out     string // where spans are written in the traced run
}

// result is what a workload measured and checked.
type result struct {
	attempted int64
	failed    int64
	failures  []string // why operations failed, first few
	checks    []string // output checks that ran
	metrics   map[string]float64
	notes     []string // sample counts and other context for a reader
	flush     string   // the workload's flush policy
}

func newResult(flush string) *result {
	return &result{metrics: make(map[string]float64), flush: flush}
}

// fail counts one wrong or failed operation and keeps its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) check(name string) { r.checks = append(r.checks, name) }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"request-reply", runRequestReply},
	{"backlog", runBacklog},
	{"crash-recover", runCrashRecover},
}

func main() {
	name := flag.String("workload", "", "request-reply, backlog, crash-recover, or all")
	seed := flag.Int64("seed", 1, "seed for the generated rids and bodies")
	seconds := flag.Float64("seconds", 15, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test")
	dir := flag.String("dir", ".bench_build", "directory for scratch state and results")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traceFlag == 1, *commit, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures the named workloads and writes their report to w, the
// result object last.
func run(w io.Writer, name string, seed int64, seconds float64, traced bool, commit, dir string) error {
	var todo []workload
	for _, wl := range workloads {
		if name == wl.name || name == "all" {
			todo = append(todo, wl)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	for _, d := range []string{"runs", "results", "spans"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
	fmt.Fprintf(w, "# perfbench host nproc=%d GOMAXPROCS=%d go=%s %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), host["os_arch"], commit)

	merged := map[string]metric{}
	var attempted, failed int64
	correct := true
	for _, wl := range todo {
		fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v\n", wl.name, seed, seconds, traced)
		runDir, err := os.MkdirTemp(filepath.Join(dir, "runs"), wl.name+"-")
		if err != nil {
			return err
		}
		cfg := runConfig{
			seed: seed, seconds: seconds, trace: traced, dir: runDir,
			out: filepath.Join(dir, "spans", wl.name+".jsonl"),
		}
		res, err := wl.run(cfg)
		if rerr := os.RemoveAll(runDir); err == nil {
			err = rerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		metrics := make(map[string]metric, len(defs))
		for _, d := range defs {
			v, ok := res.metrics[d.name]
			if !ok && !traced {
				return fmt.Errorf("%s: metric %s not measured", wl.name, d.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is %v", wl.name, d.name, v)
			}
			metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
		printResult(w, wl.name, res, metrics, defs, traced)
		if err := storeResult(dir, wl.name, seed, traced, host, res, metrics); err != nil {
			return err
		}
		attempted += res.attempted
		failed += res.failed
		correct = correct && res.failed == 0 && len(res.checks) > 0
		for k, m := range metrics {
			if len(todo) > 1 {
				k = wl.name + "/" + k
			}
			merged[k] = m
		}
	}
	if attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, merged}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, name string, res *result, metrics map[string]metric, defs []metricDef, traced bool) {
	fmt.Fprintf(w, "# %s flush policy: %s\n", name, res.flush)
	for _, n := range res.notes {
		fmt.Fprintf(w, "#   %s\n", n)
	}
	fmt.Fprintf(w, "# %s checks: %s\n", name, strings.Join(res.checks, ", "))
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%s fail_frac %g ratio (failed %d of %d attempted)\n", name, frac, res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Fprintf(w, "# %s FAILED: %s\n", name, f)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, d.name, metrics[d.name].Value, d.unit)
	}
	if traced {
		return
	}
	for _, d := range perLayer {
		if v, ok := res.metrics[d.name]; ok && slices.Contains(phaseMetrics, d.name) {
			fmt.Fprintf(w, "%s %s %.6g %s (phase, reported per layer)\n", name, d.name, v, d.unit)
		}
	}
}

// storeResult keeps the run's header, checks and metrics under
// results/, one file per workload, seed and mode.
func storeResult(dir, name string, seed int64, traced bool, host map[string]any, res *result, metrics map[string]metric) error {
	doc := map[string]any{
		"workload":  name,
		"seed":      seed,
		"trace":     traced,
		"flush":     res.flush,
		"host":      host,
		"at":        time.Now().UTC().Format(time.RFC3339),
		"attempted": res.attempted,
		"failed":    res.failed,
		"failures":  res.failures,
		"checks":    res.checks,
		"notes":     res.notes,
		"metrics":   metrics,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if traced {
		mode = 1
	}
	return os.WriteFile(filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, mode)), b, 0o644)
}
