package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/voronoi"
	"voronet/internal/wal"
)

// Layer microcalls: each layer's public functions called directly and
// timed from outside, on inputs shaped like the workload's. The traced
// runs join these per-call costs with the counters the workload moved.

// replayCalls is how many calls each microcall timing averages over.
const replayCalls = 20000

// perCallNs times fn(i) for i in [0, n) and returns the mean ns per call.
func perCallNs(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// delaunayReplay times the triangulation and Voronoi primitives greedy
// routing and owner resolution are built from, on a Triangulation of the
// workload's own points.
func delaunayReplay(pts []geom.Point, seed int64, res *result) error {
	tr := delaunay.New()
	verts := tr.InsertBulk(pts)
	rng := rand.New(rand.NewSource(streamSeed(seed, streamLayers)))
	live := make([]delaunay.VertexID, 0, len(verts))
	for _, v := range verts {
		if tr.Alive(v) {
			live = append(live, v)
		}
	}
	// Queries land near a vertex, as they do when owner resolution starts
	// from the object where greedy routing stopped.
	spacing := 1 / math.Sqrt(float64(len(live)))
	type q struct {
		v delaunay.VertexID
		p geom.Point
	}
	qs := make([]q, 1024)
	for i := range qs {
		v := live[rng.Intn(len(live))]
		c := tr.Point(v)
		qs[i] = q{v, geom.Pt(c.X+(rng.Float64()-0.5)*spacing, c.Y+(rng.Float64()-0.5)*spacing)}
	}
	var nbuf []delaunay.VertexID
	res.set("delaunay.neighbors_ns", perCallNs(replayCalls, func(i int) {
		nbuf = tr.Neighbors(qs[i%len(qs)].v, nbuf[:0])
	}), "ns", replayCalls)
	res.set("delaunay.locate_ro_ns", perCallNs(replayCalls, func(i int) {
		tr.LocateRO(qs[i%len(qs)].p, qs[i%len(qs)].v)
	}), "ns", replayCalls)
	res.set("delaunay.nearest_site_ns", perCallNs(replayCalls, func(i int) {
		_, nbuf = tr.NearestSiteRO(qs[i%len(qs)].p, qs[i%len(qs)].v, nbuf)
	}), "ns", replayCalls)

	// The routing stop test: is the target farther than ⅓ of the current
	// distance from the current object's region?
	vd := voronoi.New(tr)
	targets := make([]geom.Point, len(qs))
	for i := range targets {
		targets[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	res.set("voronoi.stop_test_ns", perCallNs(replayCalls, func(i int) {
		v, t := qs[i%len(qs)].v, targets[i%len(targets)]
		vd.DistanceToRegionBeyond(v, t, geom.Dist(tr.Point(v), t)/3)
	}), "ns", replayCalls)

	// Churn: insert fresh points, then remove them again.
	const churnCalls = 1000
	fresh := make([]delaunay.VertexID, 0, churnCalls)
	var insNs, remNs float64
	for i := 0; i < churnCalls; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		t := time.Now()
		v, err := tr.Insert(p, qs[i%len(qs)].v)
		insNs += float64(time.Since(t).Nanoseconds())
		if err != nil {
			return fmt.Errorf("delaunay insert: %w", err)
		}
		fresh = append(fresh, v)
	}
	for _, v := range fresh {
		t := time.Now()
		err := tr.Remove(v)
		remNs += float64(time.Since(t).Nanoseconds())
		if err != nil {
			return fmt.Errorf("delaunay remove: %w", err)
		}
	}
	res.set("delaunay.insert_us", insNs/churnCalls/1e3, "us", churnCalls)
	res.set("delaunay.remove_us", remNs/churnCalls/1e3, "us", churnCalls)
	return nil
}

// storeReplay times store.Local reads and writes over the workload's keys
// and value size.
func storeReplay(keys []geom.Point, valueLen int, res *result) {
	l := store.NewLocal()
	v := value(0, 0, valueLen)
	for _, k := range keys {
		l.Put(k, v)
	}
	res.set("store.local_get_ns", perCallNs(replayCalls, func(i int) {
		l.Get(keys[i%len(keys)])
	}), "ns", replayCalls)
	res.set("store.local_put_ns", perCallNs(replayCalls, func(i int) {
		l.Put(keys[i%len(keys)], v)
	}), "ns", replayCalls)
}

// walReplay times Log.Append of one record of valueLen bytes under
// wal.SyncBatch, with an fsync every batch appends, in a scratch directory.
// Its fsync times stand in for wal_fsync_seconds where the run has no
// live nodes to read them from.
func walReplay(dir string, keys []geom.Point, valueLen int, res *result) error {
	var fsyncs []float64
	l, _, err := wal.Open(wal.Options{
		Dir: dir, Policy: wal.SyncBatch,
		FsyncObserve: func(s float64) { fsyncs = append(fsyncs, s*1e6) },
	}, func(proto.StoreRecord) {})
	if err != nil {
		return fmt.Errorf("wal open: %w", err)
	}
	const appends, batch = 2000, 32
	v := value(0, 0, valueLen)
	var ns float64
	for i := 0; i < appends; i++ {
		rec := proto.StoreRecord{Key: keys[i%len(keys)], Value: v, Version: uint64(i + 1)}
		t := time.Now()
		err := l.Append(rec)
		ns += float64(time.Since(t).Nanoseconds())
		if err != nil {
			l.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		if i%batch == batch-1 {
			if err := l.Sync(); err != nil {
				l.Close()
				return fmt.Errorf("wal sync: %w", err)
			}
		}
	}
	res.set("wal.append_us", ns/appends/1e3, "us", appends)
	if _, ok := res.metrics["wal.fsync_p50_us"]; !ok {
		res.set("wal.fsync_p50_us", pct(fsyncs, 0.5), "us", len(fsyncs))
		res.set("wal.fsync_p99_us", pct(fsyncs, 0.99), "us", len(fsyncs))
	}
	return l.Close()
}

// protoReplay times the binary codec over proto.Samples(), each kind
// weighted by how many messages of that kind the run sent (uniformly when
// weights is empty).
func protoReplay(weights map[proto.Kind]float64, res *result) error {
	var encW, decW, bytesW, total float64
	buf := make([]byte, 0, 4096)
	for _, env := range proto.Samples() {
		w := 1.0
		if len(weights) > 0 {
			w = weights[env.Type]
		}
		if w == 0 {
			continue
		}
		b := proto.AppendEncode(buf[:0], env)
		frame := append([]byte(nil), b...)
		enc := perCallNs(replayCalls/10, func(int) { buf = proto.AppendEncode(buf[:0], env) })
		var derr error
		dec := perCallNs(replayCalls/10, func(int) {
			if _, err := proto.Decode(frame); err != nil {
				derr = err
			}
		})
		if derr != nil {
			return fmt.Errorf("decode %v: %w", env.Type, derr)
		}
		encW += w * enc
		decW += w * dec
		bytesW += w * float64(len(frame))
		total += w
	}
	if total == 0 {
		return fmt.Errorf("proto replay: no sampled kind was sent")
	}
	res.set("proto.encode_ns", encW/total, "ns", replayCalls/10)
	res.set("proto.decode_ns", decW/total, "ns", replayCalls/10)
	res.set("proto.bytes_per_msg", bytesW/total, "B", int(total))
	return nil
}

// sendReplay times TCPEndpoint.Send of frameBytes-byte frames between two
// loopback endpoints, waiting at the end for every frame to arrive.
func sendReplay(frameBytes int, res *result) error {
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("send replay: %w", err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("send replay: %w", err)
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(string, []byte) { got.Add(1) })
	payload := make([]byte, max(frameBytes, 1))
	const sends = 5000
	if err := a.Send(b.Addr(), payload); err != nil { // dial outside the timing
		return fmt.Errorf("send replay: %w", err)
	}
	var serr error
	ns := perCallNs(sends, func(int) {
		if err := a.Send(b.Addr(), payload); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return fmt.Errorf("send replay: %w", serr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < sends+1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("send replay: %d of %d frames arrived", got.Load(), sends+1)
		}
		time.Sleep(time.Millisecond)
	}
	res.set("transport.send_us", ns/1e3, "us", sends)
	return nil
}

// delta returns after - before for one counter.
func delta(before, after metrics.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// histDelta returns the histogram of observations made between two
// snapshots.
func histDelta(before, after metrics.Snapshot, name string) metrics.HistogramSnapshot {
	a := after.Histograms[name]
	b, ok := before.Histograms[name]
	if !ok {
		return a
	}
	d := metrics.HistogramSnapshot{Bounds: a.Bounds, Buckets: make([]uint64, len(a.Buckets)), Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Buckets {
		d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	return d
}

// quantileUs estimates a seconds histogram's q-quantile in µs by linear
// interpolation inside the bucket holding it (bucket bounds alone would
// read the same on every run). The overflow bucket reports its lower bound.
func quantileUs(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 || cum+float64(n) < rank {
			cum += float64(n)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i >= len(h.Bounds) {
			return lo * 1e6
		}
		return (lo + (h.Bounds[i]-lo)*(rank-cum)/float64(n)) * 1e6
	}
	return h.Bounds[len(h.Bounds)-1] * 1e6
}
