package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"voronet/internal/client"
	"voronet/internal/core"
	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/node"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/wal"
)

// tcpGCPercent is the GC target while the live runtime runs. All nodes
// share this one process's heap, so every GC cycle marks every node's
// state and stalls all of them at once, which one-node-per-process
// deployments never do. The measured phases therefore collect before each
// slice, and this target keeps the next harness-wide cycle out of the
// slice, so that such cycles do not make up the latency tail.
const tcpGCPercent = 400

// tcpWindows is how many equal time windows the open-loop percentiles
// are taken over; the figures are their medians.
const tcpWindows = 12

// tcpConfig sizes the live-runtime workload.
type tcpConfig struct {
	nodes       int           // durable nodes in the overlay
	keys        int           // pre-written keys
	valueLen    int           // payload bytes
	setups      int           // set-ups per run; setup_s is their median
	clients     int           // pipelined clients, one per gateway node
	rate        float64       // open-loop ops/s over all clients (latency phase)
	window      int           // closed-loop requests in flight per client
	latShare    float64       // share of the window spent open loop
	slices      int           // gateway placements per phase
	opTimeout   time.Duration // deadline of every op
	joinTimeout time.Duration // deadline of every join
	walFlush    time.Duration // WAL fsync cadence under wal.SyncBatch
	latLimit    time.Duration // traced ladder: GET p99 limit
	ladder      int           // traced ladder: steps, ×1.25 apart from rate
}

var tcpDefaults = tcpConfig{
	nodes: 512, keys: 2000, valueLen: 1024, setups: 3, clients: 2,
	rate: 1000, window: 16, latShare: 0.6, slices: 3,
	opTimeout: 5 * time.Second, joinTimeout: 10 * time.Second, walFlush: time.Second,
	latLimit: 20 * time.Millisecond, ladder: 6,
}

// tcpEnv is one running loopback overlay with its clients.
type tcpEnv struct {
	cfg      tcpConfig
	nodes    []*node.Node
	eps      []*transport.TCPEndpoint
	gwRng    *rand.Rand
	mu       sync.Mutex // guards clients, gateways and retried
	clients  []*client.Client
	gateways []string // node address each client dialled
	retried  uint64   // overload retries of clients already closed
	pos      []geom.Point
	walRoot  string
	oracle   *oracle
	stop     chan struct{} // ends the WAL flusher
	flushWG  sync.WaitGroup
	admit    metrics.Snapshot // merged node registries right after set-up
}

// close tears the overlay down: clients, flusher, endpoints, then each
// node's WAL, then the WAL directories. Safe on a partial build.
func (e *tcpEnv) close() {
	for _, c := range e.clientList() {
		c.Close()
	}
	if e.stop != nil {
		close(e.stop)
		e.flushWG.Wait()
		e.stop = nil
	}
	for _, ep := range e.eps {
		ep.Close()
	}
	for _, nd := range e.nodes {
		// With every endpoint closed, Shutdown's departure messages fail
		// fast; what it is called for is closing the node's WAL.
		_ = nd.Shutdown()
	}
	if e.walRoot != "" {
		os.RemoveAll(e.walRoot)
	}
}

// buildTCP starts cfg.nodes durable nodes on ephemeral loopback ports,
// joins them one by one through a random earlier member, dials the
// clients and pre-writes every key.
func buildTCP(ctx context.Context, cfg tcpConfig, seed int64, scratch string) (e *tcpEnv, err error) {
	e = &tcpEnv{cfg: cfg, oracle: newOracle(cfg.keys)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.walRoot, err = os.MkdirTemp(scratch, "wal-"); err != nil {
		return e, err
	}
	e.oracle.keys = uniformPoints(rand.New(rand.NewSource(streamSeed(seed, streamKeys))), cfg.keys)
	rng := rand.New(rand.NewSource(streamSeed(seed, streamNodes)))
	e.pos = uniformPoints(rng, cfg.nodes)
	for i, p := range e.pos {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return e, fmt.Errorf("listen: %w", err)
		}
		e.eps = append(e.eps, ep)
		nd, _, err := node.NewDurable(ep, p, node.Config{
			DMin:    core.DefaultDMin(cfg.nodes),
			Seed:    streamSeed(seed, int64(1000+i)),
			WALDir:  filepath.Join(e.walRoot, fmt.Sprint(i)),
			WALSync: wal.SyncBatch,
		})
		if err != nil {
			return e, fmt.Errorf("node %d: %w", i, err)
		}
		e.nodes = append(e.nodes, nd)
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				return e, err
			}
			continue
		}
		via := e.nodes[rng.Intn(i)].Info().Addr
		if err := nd.Join(via); err != nil {
			return e, fmt.Errorf("join %d: %w", i, err)
		}
		deadline := time.Now().Add(cfg.joinTimeout)
		for !nd.Joined() {
			if ctx.Err() != nil {
				return e, ctx.Err()
			}
			if time.Now().After(deadline) {
				return e, fmt.Errorf("join %d: not admitted within %v", i, cfg.joinTimeout)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	e.stop = make(chan struct{})
	e.flushWG.Add(1)
	go func() {
		defer e.flushWG.Done()
		// Each node is flushed once per walFlush, the nodes spread evenly
		// over it, as independent processes' flush timers would be.
		t := time.NewTicker(cfg.walFlush / time.Duration(len(e.nodes)))
		defer t.Stop()
		for i := 0; ; i = (i + 1) % len(e.nodes) {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.nodes[i].WALSync()
			}
		}
	}()
	e.gwRng = rand.New(rand.NewSource(streamSeed(seed, streamNodes+100)))
	if err := e.redial(); err != nil {
		return e, err
	}
	e.admit = e.snapshot()
	return e, e.preload(ctx)
}

// preload writes every key once (seq 0) through the clients, window
// requests in flight per client.
func (e *tcpEnv) preload(ctx context.Context) error {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c, cl := range e.clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			sem := make(chan struct{}, e.cfg.window)
			for k := c; k < e.cfg.keys && ctx.Err() == nil; k += len(e.clients) {
				sem <- struct{}{}
				k := k
				err := cl.Put(e.key(k), value(k, 0, e.cfg.valueLen), func(r store.Reply) {
					if r.Err != nil || !r.Found {
						failed.Add(1)
					} else {
						e.oracle.acked(k, 0, r)
					}
					<-sem
				})
				if err != nil {
					failed.Add(1)
					<-sem
				}
			}
			for i := 0; i < cap(sem); i++ {
				sem <- struct{}{}
			}
		}(c, cl)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("preload: %d of %d puts failed", n, e.cfg.keys)
	}
	return ctx.Err()
}

// key is the attribute-space position of key k, drawn from the seed once
// per environment.
func (e *tcpEnv) key(k int) geom.Point { return e.oracle.keys[k] }

// snapshot merges every node's and endpoint's registry.
func (e *tcpEnv) snapshot() metrics.Snapshot {
	var s metrics.Snapshot
	for _, nd := range e.nodes {
		s.Merge(nd.Metrics().Snapshot())
	}
	for _, ep := range e.eps {
		s.Merge(ep.Metrics().Snapshot())
	}
	return s
}

// oracle checks what the clients observed: every GET returns a value
// written for its key, at a version no older than the newest PUT acked
// before the GET was issued.
type oracle struct {
	keys []geom.Point
	mu   sync.Mutex
	st   []keyState
}

type keyState struct {
	issued uint64            // highest write seq issued after the preload
	acked  uint64            // highest version acked
	last   uint64            // version of the most recently received ack
	seqOf  map[uint64]uint64 // acked version -> write seq
	owner  map[uint64]string // acked version -> node that acked it
}

func newOracle(keys int) *oracle {
	o := &oracle{st: make([]keyState, keys)}
	for i := range o.st {
		o.st[i].seqOf = map[uint64]uint64{}
		o.st[i].owner = map[uint64]string{}
	}
	return o
}

// issuePut returns the seq of a new write to key k; seq 0 is the
// preload's.
func (o *oracle) issuePut(k int) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.st[k].issued++
	return o.st[k].issued
}

func (o *oracle) acked(k int, seq uint64, r store.Reply) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &o.st[k]
	version := r.Version
	s.seqOf[version] = seq
	s.owner[version] = r.Owner.Addr
	s.last = version
	if version > s.acked {
		s.acked = version
	}
}

// issueGet returns the minimum version a GET of k issued now may return.
func (o *oracle) issueGet(k int) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.st[k].acked
}

// check validates one GET reply; it returns "" when the reply is correct.
func (o *oracle) check(k int, minVer uint64, r store.Reply) string {
	if r.Err != nil {
		return fmt.Sprintf("get k%d: %v", k, r.Err)
	}
	if !r.Found {
		return fmt.Sprintf("get k%d: not found", k)
	}
	idx, seq, ok := parseValue(r.Value)
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &o.st[k]
	switch {
	case !ok || idx != k || seq > s.issued:
		return fmt.Sprintf("get k%d: value of k%d seq %d was never written", k, idx, seq)
	case r.Version < minVer:
		return fmt.Sprintf("get k%d: version %d (from %s) older than acked %d (by %s); last ack received: %d; version %d acked by %s",
			k, r.Version, r.Owner.Addr, minVer, s.owner[minVer], s.last, r.Version, s.owner[r.Version])
	}
	if want, ok := s.seqOf[r.Version]; ok && want != seq {
		return fmt.Sprintf("get k%d: version %d carries seq %d, acked as seq %d", k, r.Version, seq, want)
	}
	return ""
}

// opLog is one phase's record of completed operations.
type opLog struct {
	mu       sync.Mutex
	get, put *series   // latency from due (open loop) or issue (closed loop)
	late     []float64 // µs the generator issued after the due time
	getCuts  []int     // get.n() at the end of each slice
	putCuts  []int
	walls    []float64 // seconds each closed-loop slice spent issuing
	getHops  int
	attempts int
	failures []string
	failed   int
}

func newOpLog() *opLog {
	now := time.Now()
	return &opLog{get: newSeries(now), put: newSeries(now)}
}

// cut marks the end of a slice.
func (l *opLog) cut() {
	l.mu.Lock()
	l.getCuts = append(l.getCuts, l.get.n())
	l.putCuts = append(l.putCuts, l.put.n())
	l.mu.Unlock()
}

// sliceRate is the median over closed-loop slices of the ops each
// completed per second.
func (l *opLog) sliceRate(cuts []int) float64 {
	var rates []float64
	lo := 0
	for i, hi := range cuts {
		rates = append(rates, float64(hi-lo)/l.walls[i])
		lo = hi
	}
	return median(rates)
}

func (l *opLog) fail(msg string) {
	l.mu.Lock()
	l.failed++
	if len(l.failures) < 8 {
		l.failures = append(l.failures, msg)
	}
	l.mu.Unlock()
}

// issue sends one op through cl; done runs once with the op's completion
// time after the oracle judged it.
func (e *tcpEnv) issue(cl *client.Client, op tcpOp, log *opLog, from time.Time, done func()) {
	log.mu.Lock()
	log.attempts++
	log.mu.Unlock()
	finish := func(put bool, hops int, errMsg string) {
		log.mu.Lock()
		if errMsg == "" {
			if put {
				log.put.add(from)
			} else {
				log.get.add(from)
				log.getHops += hops
			}
		}
		log.mu.Unlock()
		if errMsg != "" {
			log.fail(errMsg)
		}
		done()
	}
	var err error
	if op.put {
		seq := e.oracle.issuePut(op.key)
		err = cl.Put(e.key(op.key), value(op.key, seq, e.cfg.valueLen), func(r store.Reply) {
			msg := ""
			if r.Err != nil || !r.Found {
				msg = fmt.Sprintf("put k%d: found=%v err=%v", op.key, r.Found, r.Err)
			} else {
				e.oracle.acked(op.key, seq, r)
			}
			finish(true, r.Hops, msg)
		})
	} else {
		minVer := e.oracle.issueGet(op.key)
		err = cl.Get(e.key(op.key), func(r store.Reply) {
			finish(false, r.Hops, e.oracle.check(op.key, minVer, r))
		})
	}
	if err != nil {
		finish(op.put, 0, fmt.Sprintf("send: %v", err))
	}
}

// openLoop sends at rate ops/s over all clients for d, each op timed from
// the moment it was due. With slices > 0 the window is cut into that many
// slices and the clients are re-dialled at fresh gateways before each, so
// the figures average over gateway placements rather than resting on one.
// Every reply (each has its own deadline) is awaited before a slice ends.
func (e *tcpEnv) openLoop(ctx context.Context, seed int64, stream int, rate float64, d time.Duration, slices int, tr *tracer) (*opLog, error) {
	log := newOpLog()
	streams := make([]*tcpStream, e.cfg.clients)
	for c := range streams {
		streams[c] = newTCPStream(seed, stream*16+c, e.cfg.keys)
	}
	per := rate / float64(e.cfg.clients)
	interval := time.Duration(float64(time.Second) / per)
	sliceD := d
	if slices > 0 {
		sliceD = d / time.Duration(slices)
	}
	for sl := 0; sl < max(slices, 1) && ctx.Err() == nil; sl++ {
		if slices > 0 {
			if err := e.redial(); err != nil {
				return log, err
			}
		}
		runtime.GC() // see tcpGCPercent
		var wg, inflight sync.WaitGroup
		start := time.Now()
		for c, cl := range e.clientList() {
			wg.Add(1)
			go func(c int, cl *client.Client) {
				defer wg.Done()
				// Stagger the clients evenly over one interval.
				due := start.Add(time.Duration(c) * interval / time.Duration(e.cfg.clients))
				for n := 0; due.Sub(start) < sliceD && ctx.Err() == nil; n++ {
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					late := us(time.Since(due))
					op := streams[c].next()
					opID := uint64(stream)<<48 | uint64(sl)<<40 | uint64(c)<<36 | uint64(n)
					name := "op.get"
					if op.put {
						name = "op.put"
					}
					h := tr.begin(name, opID, -1)
					inflight.Add(1)
					e.issue(cl, op, log, due, func() { tr.end(h); inflight.Done() })
					log.mu.Lock()
					log.late = append(log.late, late)
					log.mu.Unlock()
					due = due.Add(interval)
				}
			}(c, cl)
		}
		wg.Wait()
		inflight.Wait()
		log.cut()

	}
	return log, ctx.Err()
}

// closedLoop keeps window requests in flight per client for d, in slices
// at fresh gateways like openLoop.
func (e *tcpEnv) closedLoop(ctx context.Context, seed int64, stream int, d time.Duration, slices int) (*opLog, error) {
	log := newOpLog()
	streams := make([]*tcpStream, e.cfg.clients)
	for c := range streams {
		streams[c] = newTCPStream(seed, stream*16+c, e.cfg.keys)
	}
	for sl := 0; sl < slices && ctx.Err() == nil; sl++ {
		if err := e.redial(); err != nil {
			return log, err
		}
		runtime.GC() // see tcpGCPercent
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d / time.Duration(slices))
		for c, cl := range e.clientList() {
			wg.Add(1)
			go func(c int, cl *client.Client) {
				defer wg.Done()
				sem := make(chan struct{}, e.cfg.window)
				for time.Now().Before(deadline) && ctx.Err() == nil {
					sem <- struct{}{}
					e.issue(cl, streams[c].next(), log, time.Now(), func() { <-sem })
				}
				for i := 0; i < cap(sem); i++ {
					sem <- struct{}{}
				}
			}(c, cl)
		}
		wg.Wait()
		log.walls = append(log.walls, time.Since(start).Seconds())
		log.cut()
	}
	return log, ctx.Err()
}

// redial closes the clients and dials new ones at gateway nodes drawn
// from the environment's seeded gateway stream.
func (e *tcpEnv) redial() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.clients {
		e.retried += c.Retried()
		c.Close()
	}
	e.clients, e.gateways = e.clients[:0], e.gateways[:0]
	for c := 0; c < e.cfg.clients; c++ {
		gw := e.nodes[e.gwRng.Intn(len(e.nodes))].Info().Addr
		cl, err := client.Dial(gw, client.Options{Timeout: e.cfg.opTimeout})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
		e.gateways = append(e.gateways, gw)
	}
	return nil
}

// clientList returns the current clients.
func (e *tcpEnv) clientList() []*client.Client {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*client.Client(nil), e.clients...)
}

// setupTCP builds cfg.setups overlays in turn and keeps the last.
func setupTCP(ctx context.Context, cfg tcpConfig, seed int64, scratch string, res *result) (*tcpEnv, error) {
	var setups []float64
	var e *tcpEnv
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = buildTCP(ctx, cfg, seed, scratch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())

		res.attempted += cfg.keys
	}
	res.set("setup_s", median(setups), "s", len(setups))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 1)
	return e, nil
}

// record folds a phase's op log into res.
func (l *opLog) record(res *result) {
	res.addCounts(&result{attempted: l.attempts, failed: l.failed, failures: l.failures})
}

// runTCP runs tcp-store for d.
func runTCP(ctx context.Context, cfg tcpConfig, seed int64, d time.Duration, traced bool, spans, scratch string) (*result, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(tcpGCPercent))
	res := newResult()
	if traced {
		cfg.setups = 1
	}
	e, err := setupTCP(ctx, cfg, seed, scratch, res)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if traced {
		tr, tt, err := tracedTCP(ctx, e, seed, d, res)
		if err != nil {
			return nil, err
		}
		if err := replayLayers(e.pos, e.oracle.keys, cfg.valueLen, tt, seed, scratch, res); err != nil {
			return nil, err
		}
		tcpUnaccounted(tt, res)
		// The core figures come from a simulator probe.
		probe := newResult()
		pe, err := setupSim(ctx, simProbe, seed, false, probe)
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		if _, err := tracedSim(ctx, pe, simProbe, seed, probeSeconds, false, probe); err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		fill(res, probe)
		return res, finishTrace(tr, spans, res)
	}
	dOpen := time.Duration(float64(d) * cfg.latShare)
	open, err := e.openLoop(ctx, seed, 1, cfg.rate, dOpen, cfg.slices, nil)
	if err != nil {
		return nil, err
	}
	openWall := time.Since(open.get.start).Seconds()
	closed, err := e.closedLoop(ctx, seed, 2, d-dOpen, cfg.slices)
	if err != nil {
		return nil, err
	}
	open.record(res)
	closed.record(res)

	for kind, s := range map[string]*series{"get": open.get, "put": open.put} {
		_, p50 := windows([]*series{s}, openWall, tcpWindows, 0.5)
		_, p99 := windows([]*series{s}, openWall, tcpWindows, 0.99)
		res.set(kind+"_p50_us", median(p50), "us", s.n())
		res.set(kind+"_p99_us", median(p99), "us", s.n())
	}
	res.set("get_ops_s", closed.sliceRate(closed.getCuts), "1/s", closed.get.n())
	res.set("put_ops_s", closed.sliceRate(closed.putCuts), "1/s", closed.put.n())
	gets := open.get.n() + closed.get.n()
	res.set("hops_per_get", float64(open.getHops+closed.getHops)/float64(max(gets, 1)), "hops", gets)
	return res, ctx.Err()
}
