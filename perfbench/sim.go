package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"voronet/internal/core"
	"voronet/internal/geom"
	"voronet/internal/store"
)

// simConfig sizes the simulator workloads.
type simConfig struct {
	objects   int // overlay size N
	keys      int // pre-written keys
	valueLen  int // payload bytes
	setups    int // set-ups per run; setup_s is their median
	workers   int // closed-loop load goroutines
	hopSample int // leading GETs per worker that hops_per_get averages over
	anchors   int // sim-churn: objects never churned, used as op origins
	replays   int // traced runs: replay one GET in this many
	churnPost int // traced sim-get: churn pairs timed after the GET window
}

var simDefaults = simConfig{
	objects: 100000, keys: 20000, valueLen: 64, setups: 3, workers: 2,
	hopSample: 10000, anchors: 2000, replays: 32, churnPost: 400,
}

// simEnv is one built overlay with its store and generated inputs.
type simEnv struct {
	ov      *core.Overlay
	st      *core.Store
	points  []geom.Point
	ids     []core.ObjectID
	keys    []geom.Point
	origins []core.ObjectID // op origins
	cands   []core.ObjectID // sim-churn: objects the churn worker may remove

	// last is the latest write seq per key (0: the preload). Every key has
	// one writer at a time: the sim-churn mixed worker, or the sim-get
	// worker whose key partition it is in.
	last []uint64
}

// buildSim builds the overlay with BulkLoad and pre-writes every key from
// cfg.workers closed-loop writers at random origins. The returned duration
// is the set-up time.
func buildSim(ctx context.Context, cfg simConfig, seed int64, churn bool, res *result) (*simEnv, time.Duration, error) {
	t0 := time.Now()
	e := &simEnv{}
	e.points = uniformPoints(rand.New(rand.NewSource(streamSeed(seed, streamObjects))), cfg.objects)
	e.keys = uniformPoints(rand.New(rand.NewSource(streamSeed(seed, streamKeys))), cfg.keys)
	e.ov = core.New(core.Config{NMax: cfg.objects, Seed: seed})
	ids, err := e.ov.BulkLoad(e.points, cfg.workers)
	if err != nil {
		return nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	e.ids = ids
	e.last = make([]uint64, cfg.keys)
	e.st = core.NewStore(e.ov, 0)
	e.origins = ids
	if churn {
		perm := rand.New(rand.NewSource(streamSeed(seed, streamChurn))).Perm(len(ids))
		for i, p := range perm {
			if i < cfg.anchors {
				e.origins = append(e.origins[:i:i], ids[p])
			} else {
				e.cands = append(e.cands, ids[p])
			}
		}
	}

	// Preload: writer w owns keys w, w+workers, ... so each key is written
	// exactly once, at version seq 0.
	fails := make([]int, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(streamSeed(seed, streamWorker+100+int64(w))))
			for k := w; k < cfg.keys; k += cfg.workers {
				if k%256 == 0 && ctx.Err() != nil {
					return
				}
				from := e.origins[rng.Intn(len(e.origins))]
				if _, _, err := e.st.Put(from, e.keys[k], value(k, 0, cfg.valueLen)); err != nil {
					fails[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	res.attempted += cfg.keys
	for _, n := range fails {
		for i := 0; i < n; i++ {
			res.fail("preload put failed")
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// setupSim builds cfg.setups overlays in turn, keeps the last and reports
// the median set-up time and the live heap.
func setupSim(ctx context.Context, cfg simConfig, seed int64, churn bool, res *result) (*simEnv, error) {
	var env *simEnv
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		env = nil
		runtime.GC()
		e, d, err := buildSim(ctx, cfg, seed, churn, res)
		if err != nil {
			return nil, err
		}
		env = e
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups), "s", len(setups))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 1)
	return env, nil
}

// Figures are medians over this many equal time windows of a phase.
const measureWindows = 10

// simGetPutShare is the share of a sim-get window spent in its closing
// PUT-only phase, which gives the workload its PUT figures.
const simGetPutShare = 0.25

// getWorker is one closed-loop GET/PUT issuer's tally.
type getWorker struct {
	get, put *series
	hops     int // summed over the first hopSample GETs
	hopOps   int
	res      *result
	replay   replayTimes
}

// replayTimes sums the traced breakdown replays of one worker.
type replayTimes struct {
	routeHops  int
	routeCalls int
}

// simGets runs the closed-loop GET/PUT issuers until the deadline (and at
// least hopSample GETs each, unless they only PUT). putShare 0 is sim-get's
// GET-only stream; putShare 1 its PUT-only phase, where worker i writes
// only keys ≡ i mod len(workers) so that every key keeps one writer. With
// a tracer, every op is wrapped in a span and one GET in cfg.replays is
// replayed as its constituent public calls under one op id.
func simGets(ctx context.Context, e *simEnv, cfg simConfig, seed int64, workers []int, putShare float64, d time.Duration, tr *tracer) []*getWorker {
	out := make([]*getWorker, len(workers))
	routers := make([]*core.Router, len(workers))
	locals := make([]*store.Local, len(workers))
	if tr != nil {
		for i := range workers {
			routers[i], locals[i] = e.ov.NewRouter(), replayBucket(e, cfg)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, w := range workers {
		gw := &getWorker{res: newResult(), get: newSeries(start), put: newSeries(start)}
		out[i] = gw
		wg.Add(1)
		go func(i, w int, gw *getWorker, r *core.Router, local *store.Local) {
			defer wg.Done()
			s := newSimStream(seed, w, cfg.keys, len(e.origins), putShare)
			last := e.last
			minGets := cfg.hopSample
			if putShare >= 1 {
				minGets = 0
			}
			for n := 0; ; n++ {
				if n%128 == 0 && (ctx.Err() != nil || (time.Now().After(deadline) && gw.hopOps >= minGets)) {
					return
				}
				op := s.next()
				if putShare >= 1 {
					op.key -= op.key % len(workers)
					op.key += i
					if op.key >= cfg.keys {
						continue
					}
				}
				from := e.origins[op.origin]
				key := e.keys[op.key]
				opID := uint64(w)<<40 | uint64(n)
				gw.res.attempted++
				if op.put {
					seq := last[op.key] + 1
					h := tr.begin("op.put", opID, -1)
					t := time.Now()
					_, _, err := e.st.Put(from, key, value(op.key, seq, cfg.valueLen))
					gw.put.add(t)
					tr.end(h)
					if err != nil {
						gw.res.fail("put k%d: %v", op.key, err)
						continue
					}
					last[op.key] = seq
					continue
				}
				h := tr.begin("op.get", opID, -1)
				t := time.Now()
				val, hops, err := e.st.Get(from, key)
				gw.get.add(t)
				tr.end(h)
				if gw.hopOps < cfg.hopSample {
					gw.hops += hops
					gw.hopOps++
				}
				idx, seq, ok := parseValue(val)
				switch {
				case err != nil:
					gw.res.fail("get k%d: %v", op.key, err)
				case !ok || idx != op.key || seq != last[op.key] || len(val) != cfg.valueLen:
					gw.res.fail("get k%d returned k%d seq %d, want seq %d", op.key, idx, seq, last[op.key])
				}
				if tr != nil && n%cfg.replays == 0 && tr.room(4) {
					replayGet(tr, r, local, from, key, opID|1<<62, &gw.replay)
				}
			}
		}(i, w, gw, routers[i], locals[i])
	}
	wg.Wait()
	return out
}

// replayBucket returns a store.Local holding every key, the stand-in for
// the owner's record bucket in traced replays.
func replayBucket(e *simEnv, cfg simConfig) *store.Local {
	l := store.NewLocal()
	for k, p := range e.keys {
		l.Put(p, value(k, 0, cfg.valueLen))
	}
	return l
}

// replayGet re-issues one GET as the public calls it is made of —
// Router.RouteToPoint, Router.Owner, store.Local.Get — each in its own
// span under one root, so their self times and the uncovered remainder
// add up to the replayed op.
func replayGet(tr *tracer, r *core.Router, local *store.Local, from core.ObjectID, key geom.Point, op uint64, rt *replayTimes) {
	root := tr.begin("replay.get", op, -1)
	h := tr.begin("core.route", op, root)
	rr, err := r.RouteToPoint(from, key)
	tr.end(h)
	if err == nil {
		rt.routeHops += rr.Hops
		rt.routeCalls++
		h = tr.begin("core.owner", op, root)
		_, _ = r.Owner(key, rr.Stop) // the owner was just named by the route; this times its resolution alone
		tr.end(h)
	}
	h = tr.begin("store.get", op, root)
	local.Get(key)
	tr.end(h)
	tr.end(root)
}

// churnTally is the churn worker's record.
type churnTally struct {
	pairs         int
	done          *series   // completed pairs
	insLat        []float64 // µs
	remLat        []float64 // µs
	before, after core.Counters
	wall          time.Duration
	res           *result
}

// churn removes a random candidate object and inserts a fresh uniform one,
// pair after pair, keeping N constant, until the deadline or maxPairs.
func churn(ctx context.Context, e *simEnv, seed int64, d time.Duration, maxPairs int) *churnTally {
	ct := &churnTally{res: newResult(), before: e.ov.Counters()}
	rng := rand.New(rand.NewSource(streamSeed(seed, streamChurn+50)))
	start := time.Now()
	ct.done = newSeries(start)
	deadline := start.Add(d)
	for ct.pairs < maxPairs && ctx.Err() == nil && time.Now().Before(deadline) {
		i := rng.Intn(len(e.cands))
		ct.res.attempted++
		t0 := time.Now()
		t := t0
		err := e.st.RemoveObject(e.cands[i])
		ct.remLat = append(ct.remLat, us(time.Since(t)))
		if err != nil {
			ct.res.fail("remove %d: %v", e.cands[i], err)
			continue
		}
		for {
			p := geom.Pt(rng.Float64(), rng.Float64())
			t = time.Now()
			id, err := e.st.InsertObject(p)
			if errors.Is(err, core.ErrDuplicate) {
				continue
			}
			ct.insLat = append(ct.insLat, us(time.Since(t)))
			if err != nil {
				ct.res.fail("insert: %v", err)
				break
			}
			e.cands[i] = id
			break
		}
		ct.done.add(t0)
		ct.pairs++
	}
	ct.wall = time.Since(start)
	ct.after = e.ov.Counters()
	return ct
}

// simOpts selects what one sim run measures.
type simOpts struct {
	churn bool // sim-churn rather than sim-get
	trace bool
}

// runSim runs sim-get or sim-churn for d.
func runSim(ctx context.Context, cfg simConfig, seed int64, d time.Duration, o simOpts, spans, scratch string) (*result, error) {
	res := newResult()
	if o.trace {
		cfg.setups = 1
	}
	e, err := setupSim(ctx, cfg, seed, o.churn, res)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		measureSim(ctx, e, cfg, seed, d, o.churn, nil, res)
		if o.churn {
			verifyChurn(e, cfg, res)
		}
		return res, ctx.Err()
	}
	tr, err := tracedSim(ctx, e, cfg, seed, d, o.churn, res)
	if err != nil {
		return nil, err
	}
	if o.churn {
		verifyChurn(e, cfg, res)
	}
	if err := replayLayers(e.points, e.keys, cfg.valueLen, tcpTrace{}, seed, scratch, res); err != nil {
		return nil, err
	}
	if err := liveReplay(e.keys, scratch, res); err != nil {
		return nil, err
	}
	return res, finishTrace(tr, spans, res)
}

// measureSim runs one measured window and records the end-to-end metrics
// into res (tr != nil wraps each op in a span).
func measureSim(ctx context.Context, e *simEnv, cfg simConfig, seed int64, d time.Duration, isChurn bool, tr *tracer, res *result) (gws []*getWorker, ct *churnTally) {
	var workers []int
	putShare := 0.0
	if isChurn {
		workers, putShare = []int{1}, 0.5
	} else {
		for w := 0; w < cfg.workers; w++ {
			workers = append(workers, w)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	if isChurn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct = churn(ctx, e, seed, d, int(^uint(0)>>1))
		}()
	}
	dGet := d
	if !isChurn {
		dGet = time.Duration(float64(d) * (1 - simGetPutShare))
	}
	gws = simGets(ctx, e, cfg, seed, workers, putShare, dGet, tr)
	wg.Wait()
	wall := time.Since(start).Seconds()
	if !isChurn {
		pstart := time.Now()
		pws := simGets(ctx, e, cfg, seed, workers, 1, d-dGet, tr)
		var puts []*series
		n := 0
		for _, pw := range pws {
			res.addCounts(pw.res)
			puts = append(puts, pw.put)
			n += pw.put.n()
		}
		setWindowed(res, "put", puts, time.Since(pstart).Seconds(), n)
	}

	var gets, puts []*series
	nGet, nPut, hops, hopOps := 0, 0, 0, 0
	for _, gw := range gws {
		res.addCounts(gw.res)
		gets, puts = append(gets, gw.get), append(puts, gw.put)
		nGet, nPut = nGet+gw.get.n(), nPut+gw.put.n()
		hops += gw.hops
		hopOps += gw.hopOps
	}
	setWindowed(res, "get", gets, wall, nGet)
	res.set("hops_per_get", float64(hops)/float64(hopOps), "hops", hopOps)
	if isChurn {
		res.addCounts(ct.res)
		setWindowed(res, "put", puts, wall, nPut)
		rates, _ := windows([]*series{ct.done}, ct.wall.Seconds(), measureWindows, 0.5)
		res.set("gen.churn_ops_s", median(rates), "1/s", ct.pairs)
	}
	return gws, ct
}

// setWindowed records <kind>_ops_s, <kind>_p50_us and <kind>_p99_us as
// medians over the phase's time windows.
func setWindowed(res *result, kind string, ss []*series, wall float64, n int) {
	rates, p50 := windows(ss, wall, measureWindows, 0.5)
	_, p99 := windows(ss, wall, measureWindows, 0.99)
	res.set(kind+"_ops_s", median(rates), "1/s", n)
	res.set(kind+"_p50_us", median(p50), "us", n)
	res.set(kind+"_p99_us", median(p99), "us", n)
}

// verifyChurn is sim-churn's end-state oracle: every key reads back the
// last value written to it, and the overlay's invariants hold.
func verifyChurn(e *simEnv, cfg simConfig, res *result) {
	for k := 0; k < cfg.keys; k++ {
		res.attempted++
		val, _, err := e.st.Get(e.origins[k%len(e.origins)], e.keys[k])
		idx, seq, ok := parseValue(val)
		switch {
		case err != nil:
			res.fail("final get k%d: %v", k, err)
		case !ok || idx != k || seq != e.last[k]:
			res.fail("final get k%d: k%d seq %d, want seq %d", k, idx, seq, e.last[k])
		}
	}
	res.attempted++
	if err := e.ov.CheckInvariants(false); err != nil {
		res.fail("invariants: %v", err)
	}
}
