package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/rrq"
)

const (
	crBacklog   = "backlog"
	crSide      = "side"
	crElements  = 100_000
	crBatch     = 1_000                  // prefill elements per transaction
	crLead      = 300 * time.Millisecond // committer time before Checkpoint: over 1,000 commits
	crWarmCycle = 1
	crSetups    = 5 // prefill repetitions; setup_s is their median
)

// crInterval is one commit the concurrent committer saw.
type crInterval struct{ start, end time.Time }

// runCrashRecover prefills a durable backlog, then repeats: crash and
// reopen over the WAL alone, checkpoint under a concurrent committer,
// crash and reopen over the snapshot.
func runCrashRecover(cfg runConfig) (*result, error) {
	res := newResult("group commit, fsync on; prefill in 1,000-element transactions; automatic checkpoints off")
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	bodies := make([][]byte, crElements)
	for i := range bodies {
		bodies[i] = make([]byte, bodySize)
		rng.Read(bodies[i])
	}
	nodeCfg := func(dir string, reg *obs.Registry) rrq.NodeConfig {
		c := rrq.NodeConfig{Dir: dir, GroupCommit: true, Metrics: reg}
		if rec != nil {
			c.WALFS = tracedFS{rec: rec}
		}
		return c
	}

	// Set-up: prefill, then crash so that the history is the WAL alone.
	var setups []float64
	var pristine string
	for i := 0; i < crSetups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprint("setup", i))
		t0 := time.Now()
		if err := prefill(nodeCfg(dir, nil), bodies); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < crSetups-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		} else {
			pristine = dir
		}
	}
	res.metrics["setup_s"] = median(setups)
	res.note("setup_s is the median of %d set-ups (node start and prefill of %d x %dB): %v", len(setups), crElements, bodySize, setups)

	work := filepath.Join(cfg.dir, "work")
	var replay, snapOpen, stall, ckpt, stallRatio, walBytes, snapBytes, replayMBs []float64
	var tracedLat, plainLat []float64
	var rs rounds
	var committed obs.Snapshot // what the committer's commits recorded, over all cycles
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	var measured time.Duration
	for c := 0; c < crWarmCycle || measured < deadline; c++ {
		warm := c < crWarmCycle
		on := rec != nil && !warm && c%2 == 1
		if rec != nil {
			rec.on.Store(on)
		}
		if err := os.RemoveAll(work); err != nil {
			return nil, err
		}
		if err := copyDir(pristine, work); err != nil {
			return nil, err
		}
		cycleStart := time.Now()
		reg := rrq.NewMetrics()
		wb, err := dirBytes(filepath.Join(work, "wal"))
		if err != nil {
			return nil, err
		}

		// 1. Reopen over the WAL alone.
		t0 := time.Now()
		node, err := rrq.StartNode(nodeCfg(work, reg))
		if err != nil {
			return nil, fmt.Errorf("cycle %d: replay open: %w", c, err)
		}
		replayD := time.Since(t0)
		res.attempted++
		checkRecovered(res, node, bodies, 0, fmt.Sprintf("cycle %d WAL replay", c))

		// 2. Checkpoint while one committer loops enqueue+dequeue pairs.
		snap0 := reg.Snapshot()
		var stop atomic.Bool
		var ivs []crInterval
		var cerr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ivs, cerr = commitPairs(node, bodies, &stop)
		}()
		time.Sleep(crLead)
		c0 := time.Now()
		if err := node.Repo().Checkpoint(); err != nil {
			res.fail("cycle %d: checkpoint: %v", c, err)
		}
		// Stopping as Checkpoint returns keeps the log tail the snapshot
		// open replays short and independent of the committer's speed.
		c1 := time.Now()
		stop.Store(true)
		wg.Wait()
		snap1 := reg.Snapshot()
		res.attempted += int64(len(ivs))
		if cerr != nil {
			res.fail("cycle %d: committer: %v", c, cerr)
		}
		worst := 0.0
		var lat []float64
		for _, iv := range ivs {
			d := float64(iv.end.Sub(iv.start)) / 1e3
			lat = append(lat, d)
			if iv.end.After(c0) && iv.start.Before(c1) {
				worst = max(worst, d/1e3)
			}
		}

		// 3. Crash, 4. reopen over the snapshot.
		node.Crash()
		sb, err := dirBytes(filepath.Join(work, "snap"))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		node, err = rrq.StartNode(nodeCfg(work, rrq.NewMetrics()))
		if err != nil {
			return nil, fmt.Errorf("cycle %d: snapshot open: %w", c, err)
		}
		snapD := time.Since(t0)
		res.attempted++
		checkRecovered(res, node, bodies, 0, fmt.Sprintf("cycle %d snapshot", c))
		node.Crash()
		if warm {
			continue
		}
		measured += time.Since(cycleStart)
		addDelta(&committed, delta(snap0, snap1))
		replay = append(replay, float64(replayD)/1e6)
		snapOpen = append(snapOpen, float64(snapD)/1e6)
		ckptMs := float64(c1.Sub(c0)) / 1e6
		stall = append(stall, worst)
		ckpt = append(ckpt, ckptMs)
		stallRatio = append(stallRatio, ratio(worst, ckptMs))
		walBytes = append(walBytes, float64(wb))
		snapBytes = append(snapBytes, float64(sb))
		replayMBs = append(replayMBs, float64(wb)/1e6/replayD.Seconds())
		if on {
			tracedLat = append(tracedLat, lat...)
		} else {
			plainLat = append(plainLat, lat...)
		}
		if len(ivs) > 0 {
			rs.add(lat, ivs[len(ivs)-1].end.Sub(ivs[0].start))
		}
	}
	if rec != nil {
		rec.on.Store(false)
	}
	res.check("every reopen recovers exactly the acked depth and head element")
	res.check("committer pairs leave the side queue empty")

	rs.report(res, "committer commits; a round is one cycle")
	res.metrics["replay_open_ms"] = median(replay)
	res.metrics["snapshot_open_ms"] = median(snapOpen)
	res.metrics["checkpoint_stall_ms"] = median(stall)
	res.metrics["queue.checkpoint_ms"] = median(ckpt)
	res.metrics["queue.checkpoint_stall_ratio"] = median(stallRatio)
	res.metrics["recovery.wal_bytes"] = median(walBytes)
	res.metrics["storage.snapshot_bytes"] = median(snapBytes)
	res.metrics["recovery.replay_mb_s"] = median(replayMBs)
	res.note("%d cycles; replay_open_ms %.1f, snapshot_open_ms %.1f, checkpoint_stall_ms %.1f (medians over cycles)",
		len(replay), median(replay), median(snapOpen), median(stall))
	registryMetrics(res, committed, float64(rs.ops))
	if rec != nil {
		spans, _ := rec.snapshot()
		walMetrics(res, spans, float64(len(tracedLat)))
		res.metrics["tracing_overhead_us"] = quantile(tracedLat, 0.5) - quantile(plainLat, 0.5)
		res.note("tracing overhead: traced-cycle commit p50 %.1fµs minus untraced-cycle p50 %.1fµs",
			quantile(tracedLat, 0.5), quantile(plainLat, 0.5))
		if err := rec.writeOut(res, cfg.out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prefill starts a node on a fresh directory, creates the queues, fills
// the backlog in batched transactions and crashes the node.
func prefill(cfg rrq.NodeConfig, bodies [][]byte) error {
	node, err := rrq.StartNode(cfg)
	if err != nil {
		return err
	}
	defer node.Crash()
	for _, q := range []string{crBacklog, crSide} {
		if err := node.CreateQueue(rrq.QueueConfig{Name: q}); err != nil {
			return err
		}
	}
	for i := 0; i < len(bodies); i += crBatch {
		t := node.Begin()
		for _, b := range bodies[i:min(i+crBatch, len(bodies))] {
			if _, err := node.Repo().Enqueue(t, crBacklog, rrq.Element{Body: b}, "", nil); err != nil {
				t.Abort()
				return err
			}
		}
		if err := t.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// commitPairs enqueues and dequeues one element of the side queue per
// pair, each in its own durable transaction, until stop is set after a
// whole pair.
func commitPairs(node *rrq.Node, bodies [][]byte, stop *atomic.Bool) ([]crInterval, error) {
	repo := node.Repo()
	var ivs []crInterval
	ctx := context.Background()
	for n := 0; !stop.Load(); n++ {
		body := bodies[n%len(bodies)]
		s := time.Now()
		t := repo.Begin()
		if _, err := repo.Enqueue(t, crSide, rrq.Element{Body: body}, "", nil); err != nil {
			t.Abort()
			return ivs, err
		}
		if err := t.Commit(); err != nil {
			return ivs, err
		}
		m := time.Now()
		t = repo.Begin()
		el, err := repo.Dequeue(ctx, t, crSide, "", rrq.DequeueOpts{})
		if err != nil {
			t.Abort()
			return ivs, err
		}
		if err := t.Commit(); err != nil {
			return ivs, err
		}
		e := time.Now()
		if !bytes.Equal(el.Body, body) {
			return ivs, fmt.Errorf("pair %d dequeued another element than it enqueued", n)
		}
		ivs = append(ivs, crInterval{s, m}, crInterval{m, e})
	}
	return ivs, nil
}

// checkRecovered counts a failure unless the node holds the whole
// prefilled backlog, head first, and sideDepth elements in the side
// queue.
func checkRecovered(res *result, node *rrq.Node, bodies [][]byte, sideDepth int, what string) {
	repo := node.Repo()
	d, err := repo.Depth(crBacklog)
	if err != nil || d != len(bodies) {
		res.fail("%s: backlog depth %d, acked %d (err %v)", what, d, len(bodies), err)
		return
	}
	if s, err := repo.Depth(crSide); err != nil || s != sideDepth {
		res.fail("%s: side depth %d, acked %d (err %v)", what, s, sideDepth, err)
		return
	}
	head, err := repo.ListElements(crBacklog, 1)
	if err != nil || len(head) != 1 || !bytes.Equal(head[0].Body, bodies[0]) {
		res.fail("%s: backlog head is not the first element enqueued (err %v)", what, err)
	}
}

// dirBytes is the size of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// copyDir copies the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
