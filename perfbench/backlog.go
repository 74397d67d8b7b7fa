package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/rrq"
)

const (
	blQueue   = "backlog"
	blBurst   = 4096 // four times the volatile ring's 1,024 slots
	blPool    = 4    // distinct generated bursts, used in turn
	blWarmup  = 2    // bursts before measuring
	blStallNs = int64(time.Millisecond)
)

// runBacklog fills a volatile queue with a burst while no consumer
// runs, then drains it, through the node's in-process QMConn.
func runBacklog(cfg runConfig) (*result, error) {
	res := newResult("volatile queue: auto-commit, not logged (node runs group commit, fsync on)")
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var setups []float64
	var node *rrq.Node
	var reg *obs.Registry
	for i := 0; i < setupTimes; i++ {
		t0 := time.Now()
		reg = rrq.NewMetrics()
		n, err := rrq.StartNode(rrq.NodeConfig{Dir: filepath.Join(cfg.dir, fmt.Sprint("setup", i)), GroupCommit: true, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := n.CreateQueue(rrq.QueueConfig{Name: blQueue, Volatile: true}); err != nil {
			n.Crash()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupTimes-1 {
			n.Crash()
		} else {
			node = n
		}
	}
	defer node.Crash()
	res.metrics["setup_s"] = median(setups)

	rng := rand.New(rand.NewSource(cfg.seed))
	pool := make([][][]byte, blPool)
	for b := range pool {
		pool[b] = make([][]byte, blBurst)
		for i := range pool[b] {
			pool[b][i] = make([]byte, bodySize)
			rng.Read(pool[b][i])
		}
	}
	var conn core.QMConn = node.LocalConn()
	var tc *tracedConn
	if rec != nil {
		tc = &tracedConn{inner: conn, rec: rec}
		conn = tc
	}
	ctx := context.Background()

	var fills, drains, stalls, tracedCalls, plainCalls []float64
	var rs rounds
	var measured time.Duration
	var before obs.Snapshot
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	for b := 0; b < blWarmup || measured < deadline; b++ {
		warm := b < blWarmup
		if b == blWarmup {
			before = reg.Snapshot()
		}
		on := rec != nil && !warm && b%2 == 1
		if rec != nil {
			rec.on.Store(on)
			tc.on = on
		}
		bodies := pool[b%blPool]
		lat := make([]float64, 0, 2*blBurst)
		nstall := 0
		t0 := time.Now()
		for i, body := range bodies {
			res.attempted++
			s := time.Now()
			_, err := conn.Enqueue(ctx, blQueue, rrq.Element{Body: body}, "", nil)
			d := time.Since(s)
			if err != nil {
				res.fail("burst %d enqueue %d: %v", b, i, err)
				continue
			}
			lat = append(lat, float64(d)/1e3)
			if int64(d) > blStallNs {
				nstall++
			}
		}
		t1 := time.Now()
		for i, body := range bodies {
			res.attempted++
			s := time.Now()
			el, err := conn.Dequeue(ctx, blQueue, "", nil, 0, nil)
			d := time.Since(s)
			switch {
			case err != nil:
				res.fail("burst %d dequeue %d: %v", b, i, err)
				continue
			case !bytes.Equal(el.Body, body):
				res.fail("burst %d dequeue %d: not the %d-th element enqueued (FIFO broken)", b, i, i)
				continue
			}
			lat = append(lat, float64(d)/1e3)
		}
		t2 := time.Now()
		if d, err := node.Repo().Depth(blQueue); err != nil || d != 0 {
			res.fail("burst %d: depth %d after draining (err %v)", b, d, err)
		}
		if warm {
			continue
		}
		measured += t2.Sub(t0)
		fills = append(fills, float64(t1.Sub(t0))/1e6)
		drains = append(drains, float64(t2.Sub(t1))/1e6)
		stalls = append(stalls, float64(nstall))
		if on {
			tracedCalls = append(tracedCalls, lat...)
		} else {
			plainCalls = append(plainCalls, lat...)
		}
		rs.add(lat, t2.Sub(t0))
	}
	if rec != nil {
		rec.on.Store(false)
	}
	res.check("every burst drains in FIFO order")
	res.check("depth 0 after every burst")

	rs.report(res, "enqueue and dequeue calls; a round is one burst")
	res.metrics["burst_fill_ms"] = median(fills)
	res.metrics["burst_drain_ms"] = median(drains)
	res.metrics["queue.enqueue_stalls"] = mean(stalls)
	d := delta(before, reg.Snapshot())
	hits := float64(d.Counters["queue.fastpath_hits"])
	falls := float64(d.Counters["queue.fastpath_fallbacks"])
	res.metrics["queue.fastpath_hit_ratio"] = ratio(hits, hits+falls)
	res.note("burst_fill_ms %.2f, burst_drain_ms %.2f (medians over %d bursts of %d elements)",
		median(fills), median(drains), len(fills), blBurst)
	res.note("queue.fastpath_hits %.0f, queue.fastpath_fallbacks %.0f; enqueue calls over 1ms per burst %.2f",
		hits, falls, mean(stalls))
	res.note("setup_s is the median of %d set-ups: %v", len(setups), setups)
	if rec != nil {
		res.metrics["tracing_overhead_us"] = quantile(tracedCalls, 0.5) - quantile(plainCalls, 0.5)
		res.note("tracing overhead: traced-burst p50 %.3fµs minus untraced-burst p50 %.3fµs",
			quantile(tracedCalls, 0.5), quantile(plainCalls, 0.5))
		if err := rec.writeOut(res, cfg.out); err != nil {
			return nil, err
		}
	}
	return res, nil
}
