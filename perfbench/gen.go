package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"voronet/internal/geom"
)

// The load generator ("gen"): every input the program sees is drawn here
// from the run's seed, so the same seed always produces the same objects,
// keys, origins and op streams.

// streamSeed derives an independent, reproducible RNG seed for one named
// stream of a run (objects, keys, worker w's ops, ...).
func streamSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x & math.MaxInt64)
}

const (
	streamObjects int64 = iota + 1
	streamKeys
	streamChurn
	streamNodes
	streamLayers
	streamWorker // + worker index
)

// uniformPoints returns n distinct uniform points of the unit square.
func uniformPoints(rng *rand.Rand, n int) []geom.Point {
	seen := make(map[geom.Point]bool, n)
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

// value builds the payload of write seq to key idx, padded to size bytes.
// The first 16 bytes name the key and the write, so an oracle can tell
// which write a read returned.
func value(idx int, seq uint64, size int) []byte {
	if size < 16 {
		size = 16
	}
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(b[8:16], seq)
	for i := 16; i < size; i++ {
		b[i] = byte(idx + i)
	}
	return b
}

// parseValue inverts value; ok is false for a payload no writer produced.
func parseValue(b []byte) (idx int, seq uint64, ok bool) {
	if len(b) < 16 {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint64(b[0:8])), binary.LittleEndian.Uint64(b[8:16]), true
}

// zipf draws ranks 0..n-1 with Pr[i] ∝ 1/(i+1)^s. math/rand's Zipf needs
// s > 1; the workloads use s = 0.99.
type zipf struct {
	cdf []float64
}

func newZipf(s float64, n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// simOp is one generated simulator operation.
type simOp struct {
	put    bool
	key    int // key index
	origin int // origin index into the run's origin pool
}

// simStream is one closed-loop worker's endless, seed-determined op
// stream: the i-th call to next always yields the same op.
type simStream struct {
	rng      *rand.Rand
	keys     int
	origins  int
	putShare float64
}

func newSimStream(seed int64, worker, keys, origins int, putShare float64) *simStream {
	return &simStream{
		rng:  rand.New(rand.NewSource(streamSeed(seed, streamWorker+int64(worker)))),
		keys: keys, origins: origins, putShare: putShare,
	}
}

func (s *simStream) next() simOp {
	op := simOp{key: s.rng.Intn(s.keys), origin: s.rng.Intn(s.origins)}
	if s.putShare > 0 {
		op.put = s.rng.Float64() < s.putShare
	}
	return op
}

// tcpOp is one generated open-loop operation for the live runtime.
type tcpOp struct {
	put bool
	key int
}

// tcpStream yields the tcp-store mix: Zipf(0.99) key popularity with an
// 80/20 GET/PUT split.
type tcpStream struct {
	rng  *rand.Rand
	z    *zipf
	perm []int // rank -> key index, so the hot keys are spread over the square
}

func newTCPStream(seed int64, worker, keys int) *tcpStream {
	prng := rand.New(rand.NewSource(streamSeed(seed, streamKeys+100)))
	return &tcpStream{
		rng:  rand.New(rand.NewSource(streamSeed(seed, streamWorker+int64(worker)))),
		z:    newZipf(0.99, keys),
		perm: prng.Perm(keys),
	}
}

func (s *tcpStream) next() tcpOp {
	k := s.perm[s.z.next(s.rng)]
	return tcpOp{key: k, put: s.rng.Float64() < 0.2}
}
