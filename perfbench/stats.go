package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// pct returns the q-quantile (0..1, nearest rank) of xs, or 0 for an
// empty slice.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// series records each completed operation's latency and end time within
// a measured phase.
type series struct {
	start time.Time
	lat   []float64 // µs
	end   []float64 // seconds since start
}

func newSeries(start time.Time) *series { return &series{start: start} }

// add records one operation issued at t0 that just completed.
func (s *series) add(t0 time.Time) {
	now := time.Now()
	s.lat = append(s.lat, us(now.Sub(t0)))
	s.end = append(s.end, now.Sub(s.start).Seconds())
}

func (s *series) n() int { return len(s.lat) }

// windows splits [0, wall) seconds into k equal windows and returns each
// window's completed-op rate and the q-quantile of its latencies. Reporting
// the median over windows keeps a stall of the shared host from moving a
// run's figure.
func windows(ss []*series, wall float64, k int, q float64) (rates, qs []float64) {
	w := wall / float64(k)
	buckets := make([][]float64, k)
	for _, s := range ss {
		for i, e := range s.end {
			b := int(e / w)
			if b >= k {
				b = k - 1
			}
			buckets[b] = append(buckets[b], s.lat[i])
		}
	}
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/w)
		if len(b) > 0 {
			qs = append(qs, pct(b, q))
		}
	}
	return rates, qs
}

// metric is one named figure of a result, with how many samples it rests
// on.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is everything one run measured.
type result struct {
	attempted int
	failed    int
	failures  []string // the first few oracle failures, for the log
	metrics   map[string]metric
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// fail records one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// addCounts folds o's attempted and failed operations into r.
func (r *result) addCounts(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// merge folds o's counts and metrics into r.
func (r *result) merge(o *result) {
	r.addCounts(o)
	for k, v := range o.metrics {
		r.metrics[k] = v
	}
}
