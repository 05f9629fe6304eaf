package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// Tiny sizes: every workload end to end in about a second.
var (
	simTiny = simConfig{
		objects: 3000, keys: 500, valueLen: 64, setups: 2, workers: 2,
		hopSample: 300, anchors: 200, replays: 4, churnPost: 50,
	}
	tcpTiny = tcpConfig{
		nodes: 24, keys: 100, valueLen: 1024, setups: 2, clients: 2,
		rate: 200, window: 4, latShare: 0.6, slices: 2,
		opTimeout: 5 * time.Second, joinTimeout: 10 * time.Second, walFlush: 100 * time.Millisecond,
		latLimit: 50 * time.Millisecond, ladder: 2,
	}
)

func init() {
	// Traced tcp-store runs probe the simulator; keep the probe tiny too.
	simProbe = simTiny
	simProbe.setups = 1
	probeSeconds = 500 * time.Millisecond
}

// checkResult fails t unless res is correct and carries every metric of
// names with a finite value.
func checkResult(t *testing.T, res *result, names []string) {
	t.Helper()
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
	}
	for _, n := range names {
		m, ok := res.metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", n, m.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				scratch := t.TempDir()
				spans := scratch + "/spans.jsonl"
				var res *result
				var err error
				d := 400 * time.Millisecond
				switch wl {
				case "sim-get":
					res, err = runSim(context.Background(), simTiny, 1, d, simOpts{trace: traced}, spans, scratch)
				case "sim-churn":
					res, err = runSim(context.Background(), simTiny, 1, d, simOpts{churn: true, trace: traced}, spans, scratch)
				case "tcp-store":
					res, err = runTCP(context.Background(), tcpTiny, 1, time.Second, traced, spans, scratch)
				}
				if err != nil {
					t.Fatal(err)
				}
				names := endToEnd
				if traced {
					names = perLayer
					if wl == "tcp-store" {
						names = append(append([]string(nil), perLayer...), liveLayer...)
					}
				}
				checkResult(t, res, names)
			})
		}
	}
}

// The same seed yields the same op streams, and sim-get's hops_per_get
// repeats exactly however long the run lasts.
func TestDeterminism(t *testing.T) {
	a, b, c := newSimStream(7, 0, 1000, 500, 0.5), newSimStream(7, 0, 1000, 500, 0.5), newSimStream(8, 0, 1000, 500, 0.5)
	ta, tb := newTCPStream(7, 1, 2000), newTCPStream(7, 1, 2000)
	differ := false
	for i := 0; i < 5000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("sim op %d differs under one seed: %v vs %v", i, x, y)
		}
		differ = differ || x != z
		if p, q := ta.next(), tb.next(); p != q {
			t.Fatalf("tcp op %d differs under one seed: %v vs %v", i, p, q)
		}
	}
	if !differ {
		t.Fatal("seeds 7 and 8 drew the same sim op stream")
	}

	var hops []float64
	for _, d := range []time.Duration{100 * time.Millisecond, 600 * time.Millisecond} {
		cfg := simTiny
		cfg.setups = 1
		res, err := runSim(context.Background(), cfg, 42, d, simOpts{}, "", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, endToEnd)
		hops = append(hops, res.metrics["hops_per_get"].Value)
	}
	if hops[0] != hops[1] {
		t.Fatalf("hops_per_get differs at one seed: %v", hops)
	}
}

// The traced sim breakdown reconciles: per op, the layer self times plus
// the uncovered remainder add up to the replayed op's time, the remainder
// is a small share, and the replayed op costs about what an untraced
// Store.Get does.
func TestSimSpansReconcile(t *testing.T) {
	cfg := simTiny
	cfg.setups = 1
	res := newResult()
	e, err := setupSim(context.Background(), cfg, 3, false, res)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracedSim(context.Background(), e, cfg, 3, time.Second, false, res)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.analyse("replay.get")
	if b.ops == 0 {
		t.Fatal("no replayed ops")
	}
	sum := b.unaccounted
	for _, v := range b.self {
		sum += v
	}
	if math.Abs(sum-b.opNs) > 1e-6*b.opNs {
		t.Fatalf("self times sum to %.0f ns, ops took %.0f ns", sum, b.opNs)
	}
	if f := b.unaccounted / b.opNs; f < 0 || f > 0.5 {
		t.Fatalf("unaccounted share %.3f", f)
	}
	replayUs := b.opNs / float64(b.ops) / 1e3
	getUs := res.metrics["get_p50_us"].Value
	if replayUs > 10*getUs || replayUs < getUs/10 {
		t.Fatalf("replayed op %.1f µs vs untraced GET %.1f µs", replayUs, getUs)
	}
}

// Repeated live-runtime runs in one process leave no goroutines behind.
// (Whether their operations were correct is TestSmoke's concern.)
func TestTCPNoLeak(t *testing.T) {
	run := func() {
		if _, err := runTCP(context.Background(), tcpTiny, 5, 300*time.Millisecond, false, "", t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := runtime.NumGoroutine()
	run()
	run()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after two more runs, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// A watchdog-cancelled run unwinds with an error instead of hanging.
func TestCancelledRunUnwinds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runTCP(ctx, tcpTiny, 1, time.Second, false, "", t.TempDir())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// BENCHMARK.json names workloads the driver runs and exactly the metrics
// it prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, w := range names(spec.Workloads) {
		if !slices.Contains(workloads, w) {
			t.Errorf("workload %s is not one the driver runs (%v)", w, workloads)
		}
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, driver prints %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, driver prints %v", got, perLayer)
	}
}
