package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer list, in order, the metric names a run prints
// with --trace 0 and --trace 1 respectively (BENCHMARK.json mirrors them).
// A traced tcp-store run also prints liveLayer: figures only an overlay of
// live nodes has.
var endToEnd = []string{
	"setup_s", "get_ops_s", "put_ops_s", "get_p50_us", "get_p99_us",
	"put_p50_us", "put_p99_us", "hops_per_get", "heap_mb",
}

var perLayer = []string{
	"core.route_us", "core.hops", "core.ns_per_hop", "core.owner_us",
	"core.insert_us", "core.remove_us", "core.maint_msgs_per_churn", "core.fictive_per_join",
	"delaunay.neighbors_ns", "delaunay.locate_ro_ns", "delaunay.nearest_site_ns",
	"delaunay.insert_us", "delaunay.remove_us",
	"voronoi.stop_test_ns",
	"store.local_get_ns", "store.local_put_ns",
	"wal.append_us", "wal.fsync_p50_us", "wal.fsync_p99_us",
	"proto.encode_ns", "proto.decode_ns", "proto.bytes_per_msg",
	"transport.send_us",
	"node.origin_get_p50_us", "node.origin_put_p50_us",
	"client.leg_us",
	"gen.error_rate", "gen.churn_ops_s",
	"trace.overhead_frac", "trace.unaccounted_frac",
}

var liveLayer = []string{
	"store.replica_msgs_per_put", "wal.appends_per_put",
	"transport.frames_per_op", "transport.dispatch_wait_p50_us", "transport.dispatch_wait_p99_us",
	"transport.inflight_dispatch_max", "transport.write_queue_max_bytes", "transport.send_errors",
	"node.msgs_per_op", "node.join_admit_p50_us", "node.send_retries", "node.store_timeouts",
	"client.pending_max", "client.retries",
	"gen.late_p99_us", "gen.max_rate_ops_s", "gen.wire_bytes_per_op",
}

var workloads = []string{"sim-get", "sim-churn", "tcp-store"}

// runLimit is when the watchdog declares a run hung; unwindGrace is how
// long a cancelled run may take to return before the process exits
// anyway. Together they stay below the three minutes a run may take.
const (
	runLimit    = 160 * time.Second
	unwindGrace = 10 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for span dumps and scratch WAL directories")
	flag.Parse()

	d := time.Duration(*seconds * float64(time.Second))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	// Scratch files of the live runtime (WAL segments) stay under outDir.
	scratch, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	// The watchdog fails the run loudly rather than letting it hang: a
	// stuck run is cancelled, given a grace period to unwind, then killed.
	wd := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v, aborting\n", runLimit)
		cancel()
		time.AfterFunc(unwindGrace, func() {
			os.RemoveAll(scratch)
			fmt.Fprintln(os.Stderr, "perfbench: watchdog: run did not unwind; exiting")
			os.Exit(3)
		})
	})

	res, err := run(ctx, *workload, *seed, d, *traceOn == 1, scratch, *outDir)
	wd.Stop()
	cancel()
	if rerr := os.RemoveAll(scratch); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	if !emit(os.Stdout, res, *workload, *seed, *traceOn == 1) {
		os.Exit(1)
	}
}

// run dispatches one workload.
func run(ctx context.Context, workload string, seed int64, d time.Duration, traced bool, scratch, outDir string) (*result, error) {
	spans := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	switch workload {
	case "sim-get":
		return runSim(ctx, simDefaults, seed, d, simOpts{trace: traced}, spans, scratch)
	case "sim-churn":
		return runSim(ctx, simDefaults, seed, d, simOpts{churn: true, trace: traced}, spans, scratch)
	case "tcp-store":
		return runTCP(ctx, tcpDefaults, seed, d, traced, spans, scratch)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
}

// emit prints the run's metrics and reports whether the run was correct.
// The line before last carries provenance and each metric's sample count;
// the last line is the result object.
func emit(w *os.File, res *result, workload string, seed int64, traced bool) bool {
	names := endToEnd
	if traced {
		names = perLayer
		if workload == "tcp-store" {
			names = append(append([]string(nil), perLayer...), liveLayer...)
		}
	}
	out := make(map[string]metric, len(names))
	samples := make(map[string]int, len(names))
	var missing []string
	for _, n := range names {
		m, ok := res.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = m
		samples[n] = m.Samples
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(os.Stderr, "perfbench: metrics not measured:", strings.Join(missing, ", "))
	}
	correct := res.failed == 0 && len(missing) == 0 && res.attempted > 0
	for _, n := range names {
		m, ok := out[n]
		if ok {
			fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	prov := provenance(workload, seed, traced)
	prov["samples"] = samples
	prov["error_rate"] = float64(res.failed) / float64(max(res.attempted, 1))
	line, _ := json.Marshal(prov) // maps of strings and numbers always encode
	fmt.Fprintln(w, string(line))
	line, _ = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	fmt.Fprintln(w, string(line))
	return correct
}

// provenance identifies the code and host a result came from.
func provenance(workload string, seed int64, traced bool) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		err = fmt.Errorf("run aborted by the watchdog: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
