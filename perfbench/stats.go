package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the rule Python's
// statistics.quantiles uses with method="inclusive". xs need not be
// sorted; it is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b, or 0 when b is 0: a per-request count on a workload that
// completed no requests of that kind.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is what a registry recorded between two snapshots: counter
// growth and the histograms of the observations made in between.
func delta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for name, v := range after.Counters {
		d.Counters[name] = v - before.Counters[name]
	}
	for name, a := range after.Histograms {
		b := before.Histograms[name]
		prev := make(map[uint64]uint64, len(b.Buckets))
		for _, bk := range b.Buckets {
			prev[bk.Le] = bk.Count
		}
		h := obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
		for _, bk := range a.Buckets {
			if n := bk.Count - prev[bk.Le]; n > 0 {
				h.Buckets = append(h.Buckets, obs.Bucket{Le: bk.Le, Count: n})
			}
		}
		d.Histograms[name] = h
	}
	return d
}

// addDelta adds the delta d into acc, for workloads whose nodes (each
// with its own registry) come and go.
func addDelta(acc *obs.Snapshot, d obs.Snapshot) {
	if acc.Counters == nil {
		*acc = obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	}
	for name, v := range d.Counters {
		acc.Counters[name] += v
	}
	for name, h := range d.Histograms {
		sum := acc.Histograms[name]
		counts := make(map[uint64]uint64)
		for _, bks := range [][]obs.Bucket{sum.Buckets, h.Buckets} {
			for _, bk := range bks {
				counts[bk.Le] += bk.Count
			}
		}
		merged := obs.HistogramSnapshot{Count: sum.Count + h.Count, Sum: sum.Sum + h.Sum}
		for _, le := range sortedUint(counts) {
			merged.Buckets = append(merged.Buckets, obs.Bucket{Le: le, Count: counts[le]})
		}
		acc.Histograms[name] = merged
	}
}

func sortedUint(m map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// rounds reports the end-to-end timing metrics as medians over rounds
// (a second of request-reply, a burst of backlog, a cycle of
// crash-recover), so that a noisy stretch of a run moves one round, not
// the result.
type rounds struct {
	thr, p50, p99, worst []float64
	ops                  int
}

// add records one round: the latencies (µs) of its operations and how
// long it lasted.
func (r *rounds) add(lat []float64, d time.Duration) {
	if len(lat) == 0 || d <= 0 {
		return
	}
	r.ops += len(lat)
	r.thr = append(r.thr, float64(len(lat))/d.Seconds())
	r.worst = append(r.worst, maxOf(lat)/1e3)
	r.p50 = append(r.p50, quantile(lat, 0.5))
	r.p99 = append(r.p99, quantile(lat, 0.99))
}

func (r *rounds) report(res *result, op string) {
	res.metrics["throughput_ops_s"] = median(r.thr)
	res.metrics["latency_p50_us"] = median(r.p50)
	res.metrics["latency_p99_us"] = median(r.p99)
	res.metrics["stall_ms"] = median(r.worst)
	res.note("%d operations (%s) in %d rounds; throughput, p50, p99 (of about %d samples a round) and stall_ms (the slowest operation of a round) are medians over rounds",
		r.ops, op, len(r.thr), r.ops/max(1, len(r.thr)))
}
