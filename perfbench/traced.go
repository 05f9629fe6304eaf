package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"voronet/internal/client"
	"voronet/internal/core"
	"voronet/internal/geom"
	"voronet/internal/node"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/wal"
)

// Traced runs. Each measures its workload once untraced and once traced
// (trace.overhead_frac compares the two), breaks operations down by
// layer and replays every layer's microcalls on the workload's inputs.
// sim-* times the node and client layers on a single loopback node;
// tcp-store takes the core figures from a small simulator probe.

// simProbe sizes tcp-store's core probe.
var (
	simProbe = simConfig{
		objects: 512, keys: 2000, valueLen: 1024, setups: 1, workers: 2,
		hopSample: 1000, anchors: 64, replays: 4, churnPost: 200,
	}
	probeSeconds = 2 * time.Second
)

// spanLimit caps the spans one traced window keeps in memory.
const spanLimit = 1 << 20

// fill copies into res every metric of probe that res lacks.
func fill(res, probe *result) {
	res.addCounts(probe)
	for k, v := range probe.metrics {
		if _, ok := res.metrics[k]; !ok {
			res.metrics[k] = v
		}
	}
}

// tracedSim is the traced sim-get / sim-churn run on a built environment.
func tracedSim(ctx context.Context, e *simEnv, cfg simConfig, seed int64, d time.Duration, isChurn bool, res *result) (*tracer, error) {
	half := d / 2
	base := newResult()
	_, baseChurn := measureSim(ctx, e, cfg, seed, half, isChurn, nil, base)
	tr := newTracer(spanLimit)
	traced := newResult()
	gws, ct := measureSim(ctx, e, cfg, seed, half, isChurn, tr, traced)
	res.merge(base) // the untraced window's end-to-end figures ride along
	res.addCounts(traced)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bo, to := base.metrics["get_ops_s"], traced.metrics["get_ops_s"]
	res.set("trace.overhead_frac", 1-to.Value/bo.Value, "frac", to.Samples)
	b := tr.analyse("replay.get")
	res.set("trace.unaccounted_frac", b.unaccounted/b.opNs, "frac", b.ops)
	hops, calls := 0, 0
	for _, gw := range gws {
		hops += gw.replay.routeHops
		calls += gw.replay.routeCalls
	}
	res.set("core.route_us", b.meanSelfNs("core.route")/1e3, "us", b.count["core.route"])
	res.set("core.hops", float64(hops)/float64(max(calls, 1)), "hops", calls)
	res.set("core.ns_per_hop", b.self["core.route"]/float64(max(hops, 1)), "ns", hops)
	res.set("core.owner_us", b.meanSelfNs("core.owner")/1e3, "us", b.count["core.owner"])

	if isChurn {
		res.set("gen.churn_ops_s", base.metrics["gen.churn_ops_s"].Value, "1/s", baseChurn.pairs)
	} else {
		// sim-get churns nothing while measuring; time a fixed number of
		// churn pairs after its windows.
		e.cands = append([]core.ObjectID(nil), e.ids...)
		ct = churn(ctx, e, seed, time.Minute, cfg.churnPost)
		res.addCounts(ct.res)
		res.set("gen.churn_ops_s", float64(ct.pairs)/ct.wall.Seconds(), "1/s", ct.pairs)
	}
	pairs := float64(max(ct.pairs, 1))
	res.set("core.insert_us", mean(ct.insLat), "us", len(ct.insLat))
	res.set("core.remove_us", mean(ct.remLat), "us", len(ct.remLat))
	res.set("core.maint_msgs_per_churn", float64(ct.after.MaintenanceMessages-ct.before.MaintenanceMessages)/pairs, "count", ct.pairs)
	res.set("core.fictive_per_join", float64(ct.after.FictiveInserts-ct.before.FictiveInserts)/pairs, "count", ct.pairs)
	return tr, nil
}

// monitor samples the gauges no counter delta can give — the dispatch
// pool's occupancy, the write-coalescing backlog and the clients'
// pending requests — and keeps their maxima.
type monitor struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu           sync.Mutex
	inflightMax  int64
	queueMax     int64
	pendingMax   int
	samplesTaken int
}

// monitorEvery is the gauge sampling period.
const monitorEvery = 5 * time.Millisecond

func startMonitor(e *tcpEnv) *monitor {
	m := &monitor{stop: make(chan struct{})}
	inflight := make([]func() int64, 0, len(e.eps))
	queue := make([]func() int64, 0, len(e.eps))
	for _, ep := range e.eps {
		g1, g2 := ep.Metrics().Gauge("tcp_inflight_dispatches"), ep.Metrics().Gauge("tcp_write_queue_bytes")
		inflight = append(inflight, g1.Value)
		queue = append(queue, g2.Value)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
			var in, q int64
			for i := range inflight {
				in += inflight[i]()
				q += queue[i]()
			}
			p := 0
			for _, c := range e.clientList() {
				p += c.Pending()
			}
			m.mu.Lock()
			m.inflightMax = max(m.inflightMax, in)
			m.queueMax = max(m.queueMax, q)
			m.pendingMax = max(m.pendingMax, p)
			m.samplesTaken++
			m.mu.Unlock()
		}
	}()
	return m
}

func (m *monitor) close() {
	close(m.stop)
	m.wg.Wait()
}

// tcpTrace is what a traced tcp run hands to the layer replays.
type tcpTrace struct {
	weights        map[proto.Kind]float64 // messages sent per kind
	frameBytes     int                    // mean frame size on the wire
	getP50         float64                // untraced open-loop GET p50, µs
	hops           float64                // per GET
	dispatchMeanUs float64                // mean inbound dispatch wait
}

// originPair times one GET through the client and the same GET issued at
// the client's gateway node, back to back: their difference is the
// client's own leg.
func (e *tcpEnv) originPair(tr *tracer, op uint64, gw *node.Node, cl *client.Client, k int, put bool, seq uint64) (clientUs, originUs float64, errMsg string) {
	wait := func(name string, issue func(cb func(store.Reply)) error) (store.Reply, float64) {
		h := tr.begin(name, op, -1)
		defer tr.end(h)
		return await(issue)
	}
	if put {
		r, o := wait("node.origin_put", func(cb func(store.Reply)) error { return gw.Put(e.key(k), value(k, seq, e.cfg.valueLen), cb) })
		if r.Err != nil || !r.Found {
			return 0, 0, fmt.Sprintf("origin put k%d: found=%v err=%v", k, r.Found, r.Err)
		}
		e.oracle.acked(k, seq, r)
		return 0, o, ""
	}
	minVer := e.oracle.issueGet(k)
	r, c := wait("client.get", func(cb func(store.Reply)) error { return cl.Get(e.key(k), cb) })
	if msg := e.oracle.check(k, minVer, r); msg != "" {
		return 0, 0, msg
	}
	minVer = e.oracle.issueGet(k)
	r, o := wait("node.origin_get", func(cb func(store.Reply)) error { return gw.Get(e.key(k), cb) })
	if msg := e.oracle.check(k, minVer, r); msg != "" {
		return 0, 0, "origin " + msg
	}
	return c, o, ""
}

// await issues one store operation and waits for its reply, returning it
// with the µs it took.
func await(issue func(cb func(store.Reply)) error) (store.Reply, float64) {
	ch := make(chan store.Reply, 1)
	t := time.Now()
	if err := issue(func(r store.Reply) { ch <- r }); err != nil {
		return store.Reply{Err: err}, 0
	}
	r := <-ch // every issued op answers or times out
	return r, us(time.Since(t))
}

// tracedTCP is the traced tcp-store run on a built environment: an
// untraced and a traced open-loop window at the base rate, client/origin
// pairs, then a rate ladder; counter deltas over all of it.
func tracedTCP(ctx context.Context, e *tcpEnv, seed int64, d time.Duration, res *result) (*tracer, tcpTrace, error) {
	cfg := e.cfg
	out := tcpTrace{weights: map[proto.Kind]float64{}}
	admitted := e.admit.Histograms["node_join_admit_seconds"]
	res.set("node.join_admit_p50_us", quantileUs(admitted, 0.5), "us", int(admitted.Count))

	before := e.snapshot()
	mon := startMonitor(e)
	dOpen := time.Duration(float64(d) * 0.25)
	base, err := e.openLoop(ctx, seed, 1, cfg.rate, dOpen, 0, nil)
	if err != nil {
		return nil, out, err
	}
	tr := newTracer(spanLimit)
	traced, err := e.openLoop(ctx, seed, 1, cfg.rate, dOpen, 0, tr)
	if err != nil {
		return nil, out, err
	}
	base.record(res)
	traced.record(res)
	ops := base.get.n() + base.put.n() + traced.get.n() + traced.put.n()
	puts := base.put.n() + traced.put.n()
	out.getP50 = pct(base.get.lat, 0.5)
	res.set("trace.overhead_frac", pct(traced.get.lat, 0.5)/out.getP50-1, "frac", traced.get.n())
	res.set("gen.late_p99_us", pct(append(base.late, traced.late...), 0.99), "us", len(base.late)+len(traced.late))
	out.hops = float64(base.getHops+traced.getHops) / float64(max(base.get.n()+traced.get.n(), 1))

	// Client vs origin: the same GETs through the client and at its
	// gateway node, back to back, for a tenth of the window.
	var clientLat, getOrigin, putOrigin []float64
	s := newTCPStream(seed, 7*16, cfg.keys)
	gw := e.gatewayNode(0)
	pairEnd := time.Now().Add(d / 10)
	for time.Now().Before(pairEnd) && ctx.Err() == nil {
		op := s.next()
		var seq uint64
		if op.put {
			seq = e.oracle.issuePut(op.key)
		}
		res.attempted++
		c, o, msg := e.originPair(tr, 1<<62|uint64(res.attempted), gw, e.clientList()[0], op.key, op.put, seq)
		switch {
		case msg != "":
			res.fail("%s", msg)
		case op.put:
			putOrigin = append(putOrigin, o)
			puts++
			ops++
		default:
			clientLat = append(clientLat, c)
			getOrigin = append(getOrigin, o)
			ops += 2
		}
	}
	res.set("node.origin_get_p50_us", pct(getOrigin, 0.5), "us", len(getOrigin))
	res.set("node.origin_put_p50_us", pct(putOrigin, 0.5), "us", len(putOrigin))
	res.set("client.leg_us", pct(clientLat, 0.5)-pct(getOrigin, 0.5), "us", len(clientLat))

	// Rate ladder: the highest rate whose GET p99 meets the limit while the
	// generator keeps up (no growing backlog).
	step := time.Duration(float64(d) * 0.4 / float64(cfg.ladder))
	best := 0.0
	for i := 0; i < cfg.ladder && ctx.Err() == nil; i++ {
		rate := cfg.rate * math.Pow(1.25, float64(i))
		l, err := e.openLoop(ctx, seed, 3+i, rate, step, 0, nil)
		if err != nil {
			return nil, out, err
		}
		l.record(res)
		ops += l.get.n() + l.put.n()
		puts += l.put.n()
		limit := us(cfg.latLimit)
		if l.failed > 0 || pct(l.get.lat, 0.99) > limit || pct(l.late, 0.99) > limit {
			break
		}
		best = rate
	}
	res.set("gen.max_rate_ops_s", best, "1/s", cfg.ladder)
	mon.close()
	after := e.snapshot()

	fops, fputs := float64(max(ops, 1)), float64(max(puts, 1))
	for k := proto.Kind(0); k < proto.KindCount; k++ {
		if n := delta(before, after, "node_send_"+k.String()+"_total"); n > 0 {
			out.weights[k] = n
		}
	}
	frames := delta(before, after, "tcp_frames_out_total")
	bytesOut := delta(before, after, "tcp_bytes_out_total")
	out.frameBytes = int(bytesOut / math.Max(frames, 1))
	res.set("node.msgs_per_op", delta(before, after, "node_sent_total")/fops, "count", ops)
	res.set("node.send_retries", delta(before, after, "node_send_retries_total"), "count", 1)
	res.set("node.store_timeouts", delta(before, after, "store_timeouts_total"), "count", 1)
	res.set("store.replica_msgs_per_put", delta(before, after, "node_send_replica_sync_total")/fputs, "count", puts)
	res.set("wal.appends_per_put", delta(before, after, "wal_appends_total")/fputs, "count", puts)
	fs := histDelta(before, after, "wal_fsync_seconds")
	res.set("wal.fsync_p50_us", quantileUs(fs, 0.5), "us", int(fs.Count))
	res.set("wal.fsync_p99_us", quantileUs(fs, 0.99), "us", int(fs.Count))
	dw := histDelta(before, after, "tcp_dispatch_wait_seconds")
	res.set("transport.dispatch_wait_p50_us", quantileUs(dw, 0.5), "us", int(dw.Count))
	res.set("transport.dispatch_wait_p99_us", quantileUs(dw, 0.99), "us", int(dw.Count))
	res.set("transport.frames_per_op", frames/fops, "count", ops)
	res.set("transport.send_errors", delta(before, after, "tcp_send_errors_total"), "count", 1)
	res.set("transport.inflight_dispatch_max", float64(mon.inflightMax), "count", mon.samplesTaken)
	res.set("transport.write_queue_max_bytes", float64(mon.queueMax), "B", mon.samplesTaken)
	res.set("client.pending_max", float64(mon.pendingMax), "count", mon.samplesTaken)
	e.mu.Lock()
	retried := e.retried
	for _, c := range e.clients {
		retried += c.Retried()
	}
	e.mu.Unlock()
	res.set("client.retries", float64(retried), "count", 1)
	res.set("gen.wire_bytes_per_op", bytesOut/fops, "B", ops)
	res.set("hops_per_get", out.hops, "hops", base.get.n()+traced.get.n())
	out.dispatchMeanUs = dw.Mean() * 1e6
	return tr, out, ctx.Err()
}

// gatewayNode returns the node client c dialled.
func (e *tcpEnv) gatewayNode(c int) *node.Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, nd := range e.nodes {
		if nd.Info().Addr == e.gateways[c] {
			return nd
		}
	}
	return e.nodes[0]
}

// replayLayers times every layer's microcalls on the run's inputs; tt
// carries the live runtime's message mix when the run had one.
func replayLayers(pts, keys []geom.Point, valueLen int, tt tcpTrace, seed int64, scratch string, res *result) error {
	if err := delaunayReplay(pts, seed, res); err != nil {
		return err
	}
	storeReplay(keys, valueLen, res)
	dir, err := os.MkdirTemp(scratch, "walreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := walReplay(filepath.Join(dir, "log"), keys, valueLen, res); err != nil {
		return err
	}
	if err := protoReplay(tt.weights, res); err != nil {
		return err
	}
	frame := tt.frameBytes
	if frame == 0 {
		frame = int(res.metrics["proto.bytes_per_msg"].Value)
	}
	return sendReplay(frame, res)
}

// tcpUnaccounted joins the counter-derived per-GET message count with the
// replayed per-message costs: the share of the untraced GET p50 that
// encoding, decoding, sending and dispatch waiting do not explain.
func tcpUnaccounted(tt tcpTrace, res *result) {
	msgs := tt.hops + 1 // request forwards plus the reply
	perMsg := (res.metrics["proto.encode_ns"].Value+res.metrics["proto.decode_ns"].Value)/1e3 +
		res.metrics["transport.send_us"].Value + tt.dispatchMeanUs
	res.set("trace.unaccounted_frac", 1-msgs*perMsg/tt.getP50, "frac", 1)
}

// liveReplay times the node and client layers on their own: one durable
// node that owns the whole square and a pipelined client over loopback
// TCP. Each key is written at the node, read through the client and read
// at the node, one call at a time, so the client's leg is the difference
// between the two reads and no replica is involved.
func liveReplay(keys []geom.Point, scratch string, res *result) error {
	dir, err := os.MkdirTemp(scratch, "live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("live replay: %w", err)
	}
	nd, _, err := node.NewDurable(ep, geom.Pt(0.5, 0.5), node.Config{WALDir: dir, WALSync: wal.SyncBatch})
	if err != nil {
		ep.Close()
		return fmt.Errorf("live replay: %w", err)
	}
	defer func() {
		ep.Close()
		_ = nd.Shutdown() // closes the WAL; the departure has no one to tell
	}()
	if err := nd.Bootstrap(); err != nil {
		return fmt.Errorf("live replay: %w", err)
	}
	cl, err := client.Dial(ep.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		return fmt.Errorf("live replay: %w", err)
	}
	defer cl.Close()

	const calls = 500
	var puts, clientGets, nodeGets []float64
	for i := 0; i < calls; i++ {
		k := i % len(keys)
		v := value(k, uint64(i+1), 1024)
		res.attempted += 3
		r, put := await(func(cb func(store.Reply)) error { return nd.Put(keys[k], v, cb) })
		if r.Err != nil || !r.Found {
			res.fail("live put k%d: found=%v err=%v", k, r.Found, r.Err)
			continue
		}
		r, cget := await(func(cb func(store.Reply)) error { return cl.Get(keys[k], cb) })
		if r.Err != nil || string(r.Value) != string(v) {
			res.fail("live client get k%d: err=%v", k, r.Err)
			continue
		}
		r, nget := await(func(cb func(store.Reply)) error { return nd.Get(keys[k], cb) })
		if r.Err != nil || string(r.Value) != string(v) {
			res.fail("live node get k%d: err=%v", k, r.Err)
			continue
		}
		puts, clientGets, nodeGets = append(puts, put), append(clientGets, cget), append(nodeGets, nget)
	}
	res.set("node.origin_put_p50_us", pct(puts, 0.5), "us", len(puts))
	res.set("node.origin_get_p50_us", pct(nodeGets, 0.5), "us", len(nodeGets))
	res.set("client.leg_us", pct(clientGets, 0.5)-pct(nodeGets, 0.5), "us", len(clientGets))
	return nil
}
