// Command perfbench is VoroNet's end-to-end benchmark. One command drives
// both realisations of the protocol through their public APIs only — the
// internal/core simulator (Overlay, Store, Router) and the live
// internal/node runtime over loopback TCP (node.NewDurable,
// transport.ListenTCP, internal/client) — prints every metric by name with
// its unit, and exits non-zero if any correctness check fails:
//
//	bash perfbench/run.sh --workload sim-get --seed 1 --seconds 30 --trace 0
//
// run.sh builds the driver from the checkout's sources into .bench_build/
// (build cache included) and runs it there; `go run .` from this directory
// works too. All load comes from one process with two load goroutines or
// clients (the host has two vCPUs). Every input is drawn from --seed.
//
// # Output
//
// One human-readable line per metric, then a JSON line with provenance
// (commit, Go version, GOMAXPROCS, nproc, seed), each metric's sample count
// and the error rate, then the result object as the last line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"get_p50_us": {"value": 944.2, "unit": "us"}, ...}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run and prints the per-layer metrics.
//
// # Workloads
//
//   - sim-get: the simulator with 100 000 uniform objects (default Config,
//     k = 1, built with BulkLoad), 20 000 pre-written 64-byte keys, then two
//     closed-loop workers issuing GETs from random origins, and in the last
//     quarter of the window PUTs only, each worker rewriting its own half of
//     the keys. Routing is real
//     (about 34 hops per GET), so per-hop routing cost in core, delaunay and
//     voronoi does nearly all the work; transport, proto and wal do none.
//     hops_per_get averages the first 10 000 GETs of each worker's stream
//     and repeats exactly at a fixed seed.
//   - sim-churn: the same overlay and keys. One worker churns at constant N
//     (Store.RemoveObject + Store.InsertObject pairs); the other runs a
//     closed-loop 50/50 PUT/GET mix. Sharded surgery, Delaunay
//     insert/remove and store handoff dominate, so a read-path speed-up
//     that taxes every surgery commit shows up here as a loss.
//   - tcp-store: 512 durable nodes (NewDurable, wal.SyncBatch with each
//     node flushed once a second, the flushes spread evenly, WAL
//     directories under .bench_build/, otherwise default node.Config with
//     DMin = DefaultDMin(512)) in one process over loopback TCP, 2 000
//     pre-written 1 KiB keys, and two pipelined clients on two gateway
//     nodes sending 80/20 GET/PUT with Zipf(0.99) popularity. Each
//     measured phase is cut into three slices and the clients are
//     re-dialled at two fresh seeded gateways before each, so the figures
//     average over gateway placements instead of resting on one pair. The
//     only workload that exercises client, transport, proto, node and wal;
//     it never touches the core simulator. Its set-up is 512 joins, which
//     measures node view surgery. The 512 nodes share one heap, so every GC
//     cycle stalls all of them at once, which one-node-per-process
//     deployments never do; the run collects before each slice and sets
//     the GC target to 400% so that no such harness-wide cycle falls inside
//     a measured slice. GC cost is still measured on sim-*, and heap_mb
//     reports the live heap.
//
// BENCHMARK.json gates sim-get and sim-churn. tcp-store runs the same way
// but is not gated: on a shared two-vCPU host its closed-loop rates and
// its tails spread by more across seeds than the largest bound a gated
// metric may have, and its oracle can fail on the program as it stands
// (see Correctness oracles). Its layers are still measured by every traced
// run, through the probe described under Traced run.
//
// # End-to-end metrics
//
// Every workload, tcp-store included, reports all of them:
//
//   - setup_s: overlay build or joins plus key preload; the median of three
//     set-ups per run.
//   - get_ops_s, put_ops_s: completed operations per second. sim-get: its
//     GET phase and its PUT phase. sim-churn: the
//     mixed worker, while churn runs beside it. tcp-store: the last 40% of
//     the run, closed loop with 16 requests in flight per client.
//   - get_p50_us, get_p99_us, put_p50_us, put_p99_us: sim-*: per call,
//     closed loop. tcp-store: the first 60% of the run, open loop at a
//     fixed 1 000 ops/s, each request timed from when it was due.
//   - hops_per_get: greedy route length per GET, the paper's metric.
//   - heap_mb: live heap after set-up.
//
// Rates and percentiles are medians over the run's time windows (ten
// equal windows per phase on sim-*; on tcp-store twelve for the
// percentiles and the three gateway slices for the rates), so one stall of
// the shared host moves one window, not the figure. tcp-store also
// collects garbage before each slice (see the GC note above).
//
// Failed, timed-out or wrong operations are counted in "failed" against
// "attempted" (the error rate) and make the run exit non-zero.
//
// # Correctness oracles
//
//   - sim-get: every GET returns its pre-written value.
//   - sim-churn: every GET returns the last value written to its key (one
//     writer); after the run every key reads back its last value and
//     Overlay.CheckInvariants(false) passes.
//   - tcp-store: every GET returns a value written for its key, at a
//     version no older than the newest PUT acked before the GET was issued.
//     A failure names the node that answered and the node that acked: a
//     replica on the GET's greedy path answering with the version before
//     one its owner already acked is a stale read (the owner acks once it
//     has sent the update to its replicas, not once they applied it).
//
// # Traced run and per-layer metrics
//
//	bash perfbench/run.sh --workload tcp-store --seed 1 --seconds 30 --trace 1
//
// The traced run measures the workload once untraced and once with spans
// (name, start, end, parent, op id) around every call the driver makes
// into a layer; trace.overhead_frac compares the two (GET throughput on
// sim-*, open-loop GET p50 on tcp-store). Spans are kept in memory and
// written to .bench_build/trace-<workload>-<seed>.jsonl at exit. On sim-*,
// one GET in 32 is replayed as the public calls it is made of
// (Router.RouteToPoint → Router.Owner → store.Local.Get) under one op id;
// each layer's self time comes from those spans, and
// trace.unaccounted_frac is the part of the replayed op no layer span
// covers. On tcp-store, counter and histogram deltas from every node and
// endpoint registry over the measured window are joined with the replayed
// codec, Send and WAL microcalls; trace.unaccounted_frac is the share of
// the GET p50 that per-message encode, decode, Send and dispatch wait do
// not explain (the rest is handler work, scheduling and the kernel's
// loopback path).
//
// Every traced run prints the per-layer metrics of BENCHMARK.json. Layers
// a workload does not exercise are timed on their own: the delaunay,
// voronoi, store, wal, proto and transport microcalls on the run's own
// points, keys and value size (proto over proto.Samples(), weighted by the
// run's per-kind sends on tcp-store and uniformly on sim-*; WAL fsyncs
// from the replay where no live node logged any); node.origin_* and
// client.leg_us on sim-* come from one durable node that owns the whole
// square, written at the node and read through a client and at the node,
// one call at a time; the core figures on tcp-store come from a
// 512-object simulator. A traced tcp-store run also prints the figures
// only an overlay of live nodes has: store.replica_msgs_per_put,
// wal.appends_per_put, transport.frames_per_op, transport.dispatch_wait_*,
// transport.inflight_dispatch_max, transport.write_queue_max_bytes,
// transport.send_errors, node.msgs_per_op, node.join_admit_p50_us,
// node.send_retries, node.store_timeouts, client.pending_max,
// client.retries, gen.late_p99_us, gen.max_rate_ops_s and
// gen.wire_bytes_per_op.
//
// Which end-to-end metric each layer metric should move, on which workload:
//
//   - core.route_us, core.hops, core.ns_per_hop, core.owner_us →
//     get_ops_s and get_p50_us on sim-get. core.insert_us, core.remove_us,
//     core.maint_msgs_per_churn, core.fictive_per_join, gen.churn_ops_s →
//     get_ops_s and put_ops_s on sim-churn (the mixed worker shares the
//     shards churn locks).
//   - delaunay.neighbors_ns, delaunay.locate_ro_ns,
//     delaunay.nearest_site_ns → core.ns_per_hop, and through it get_ops_s
//     on sim-get. delaunay.insert_us, delaunay.remove_us → sim-churn.
//   - voronoi.stop_test_ns → core.route_us on sim-get.
//   - store.local_get_ns, store.local_put_ns → get_p50_us and put_p50_us on
//     every workload. store.replica_msgs_per_put → put_p50_us and
//     gen.wire_bytes_per_op on tcp-store.
//   - wal.append_us, wal.fsync_p50_us, wal.fsync_p99_us,
//     wal.appends_per_put → put_p50_us and put_p99_us on tcp-store.
//   - proto.encode_ns, proto.decode_ns, proto.bytes_per_msg (over
//     proto.Samples(), weighted by the run's per-kind sends) → get_p50_us
//     and gen.wire_bytes_per_op on tcp-store.
//   - transport.frames_per_op, transport.dispatch_wait_p50_us,
//     transport.dispatch_wait_p99_us, transport.inflight_dispatch_max,
//     transport.write_queue_max_bytes, transport.send_us,
//     transport.send_errors → get_p99_us and gen.max_rate_ops_s on
//     tcp-store.
//   - node.msgs_per_op, node.origin_get_p50_us, node.origin_put_p50_us,
//     node.join_admit_p50_us, node.send_retries, node.store_timeouts →
//     get_p50_us, get_ops_s, setup_s and the error rate on tcp-store.
//   - client.leg_us (client GET time minus the same GET issued at the
//     gateway), client.pending_max, client.retries → get_p99_us on
//     tcp-store.
//   - gen.late_p99_us: how late the open-loop generator ran; a health
//     check, not a target. gen.max_rate_ops_s: the highest rate of a
//     ladder (×1.25 steps from 1 000 ops/s) whose GET p99 stays within
//     20 ms while the generator keeps up. gen.wire_bytes_per_op:
//     tcp_bytes_out_total per completed op. gen.error_rate: failed over
//     attempted.
//
// Histogram-derived figures (dispatch wait, fsync, join admission) are
// interpolated inside the registry's ×3 buckets.
//
// # Caveats
//
// All tcp-store traffic crosses the host's loopback interface, not a real
// link, and 512 nodes share the host's two vCPUs with their clients. The
// numbers are this kind of small sandbox's, not a datacenter's; compare
// them only against runs of another commit on the same host.
package main
