package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/queue/qservice"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/rrq"
)

const (
	rrClients  = 2
	bodySize   = 128
	rrQueue    = "req"
	rrLeaseTTL = time.Hour // longer than any run: no promotion
	rrWarmup   = time.Second
	setupTimes = 15 // set-up repetitions; setup_s is their median
)

// rrEnv is one set-up of the request-reply system: a sync-replicating
// primary with group commit and fsync, its standby, one server loop
// and one ResilientClerk (on its own RPC connection) per client.
type rrEnv struct {
	standby *rrq.Standby
	node    *rrq.Node
	reg     *obs.Registry
	lease   *rpc.Client
	conns   []*qservice.Client
	traced  []*tracedConn // nil entries in the untraced run
	clerks  []*rrq.ResilientClerk
	servers []*rrq.Server
	cancel  context.CancelFunc
	serving sync.WaitGroup
}

// lateTransport forwards to a transport set after construction: the
// standby pings the primary's lease, but the primary's address is known
// only once it has started, which needs the standby's address first.
type lateTransport struct {
	t atomic.Pointer[replica.RPCTransport]
}

func (l *lateTransport) Exchange(ctx context.Context, req []byte) ([]byte, error) {
	t := l.t.Load()
	if t == nil {
		return nil, errors.New("primary not started yet")
	}
	return t.Exchange(ctx, req)
}

func echo(rc *rrq.ReqCtx) ([]byte, error) { return rc.Request.Body, nil }

func setupRequestReply(dir string, rec *recorder, seed int64) (*rrEnv, error) {
	env := &rrEnv{reg: rrq.NewMetrics()}
	lease := &lateTransport{}
	var err error
	env.standby, err = rrq.StartStandby(rrq.StandbyConfig{
		Dir:            filepath.Join(dir, "standby"),
		ListenAddr:     "127.0.0.1:0",
		LeaseTTL:       rrLeaseTTL,
		LeaseTransport: lease,
	})
	if err != nil {
		return nil, err
	}
	repl := &rrq.ReplicationConfig{Mode: rrq.ReplSync, StandbyAddr: env.standby.Addr(), LeaseTTL: rrLeaseTTL}
	cfg := rrq.NodeConfig{
		Dir:         filepath.Join(dir, "primary"),
		ListenAddr:  "127.0.0.1:0",
		GroupCommit: true,
		Metrics:     env.reg,
		Replication: repl,
	}
	if rec != nil {
		// The same transport the node builds for StandbyAddr, wrapped.
		repl.Transport = tracedTransport{inner: replica.NewRPCTransport(rpc.NewClient(env.standby.Addr(), nil), replica.MethodShip), rec: rec}
		cfg.WALFS = tracedFS{rec: rec}
	}
	env.node, err = rrq.StartNode(cfg)
	if err != nil {
		env.standby.Close()
		return nil, err
	}
	env.lease = rpc.NewClient(env.node.Addr(), nil)
	lease.t.Store(replica.NewRPCTransport(env.lease, replica.MethodLease))
	if err := env.node.CreateQueue(rrq.QueueConfig{Name: rrQueue}); err != nil {
		env.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	handler := rrq.Handler(echo)
	if rec != nil {
		handler = tracedHandler(rec, handler)
	}
	for i := 0; i < rrClients; i++ {
		srv, err := rrq.NewServer(rrq.ServerConfig{
			Repo: env.node.Repo(), Queue: rrQueue, Name: fmt.Sprintf("server-%d", i), Handler: handler,
		})
		if err != nil {
			env.close()
			return nil, err
		}
		env.servers = append(env.servers, srv)
		env.serving.Add(1)
		go func() {
			defer env.serving.Done()
			srv.Serve(ctx)
		}()
	}
	for i := 0; i < rrClients; i++ {
		qc := qservice.NewClient(rpc.NewClient(env.node.Addr(), nil))
		env.conns = append(env.conns, qc)
		var conn core.QMConn = qc
		var tc *tracedConn
		if rec != nil {
			tc = &tracedConn{inner: qc, rec: rec}
			conn = tc
		}
		env.traced = append(env.traced, tc)
		clerk := rrq.NewResilientClerk(conn, rrq.ResilientConfig{
			Clerk: rrq.ClerkConfig{ClientID: fmt.Sprintf("clerk-%d", i), RequestQueue: rrQueue},
			Seed:  seed + int64(i) + 1,
		})
		if _, err := clerk.Connect(ctx); err != nil {
			env.close()
			return nil, fmt.Errorf("clerk connect: %w", err)
		}
		env.clerks = append(env.clerks, clerk)
	}
	return env, nil
}

// close stops the servers and crashes the node: the run's state is
// thrown away, so the shutdown checkpoint would be wasted work.
func (env *rrEnv) close() {
	if env.cancel != nil {
		env.cancel()
	}
	env.serving.Wait()
	for _, c := range env.conns {
		c.Close()
	}
	env.node.Crash()
	if env.lease != nil {
		env.lease.Close()
	}
	env.standby.Close()
}

func (env *rrEnv) processed() (n, aborts uint64) {
	for _, s := range env.servers {
		st := s.Stats()
		n += st.Processed
		aborts += st.Aborts
	}
	return n, aborts
}

// rrSample is one completed Transceive.
type rrSample struct {
	round  int
	lat    time.Duration
	traced bool
}

// rrInputs generates one clerk's rids and bodies from the seed.
type rrInputs struct {
	rng    *rand.Rand
	client int
	n      int
}

func (g *rrInputs) next() (string, []byte) {
	body := make([]byte, bodySize)
	g.rng.Read(body)
	rid := fmt.Sprintf("c%d-%08d-%016x", g.client, g.n, g.rng.Uint64())
	g.n++
	return rid, body
}

func runRequestReply(cfg runConfig) (*result, error) {
	res := newResult("group commit, fsync on, sync replication over loopback TCP to a standby with fsync on")
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var setups []float64
	var env *rrEnv
	for i := 0; i < setupTimes; i++ {
		t0 := time.Now()
		e, err := setupRequestReply(filepath.Join(cfg.dir, fmt.Sprint("setup", i)), rec, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupTimes-1 {
			e.close()
		} else {
			env = e
		}
	}
	defer env.close()
	res.metrics["setup_s"] = median(setups)

	inputs := make([]*rrInputs, rrClients)
	for i := range inputs {
		inputs[i] = &rrInputs{rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i))), client: i}
	}
	var attempted, completed atomic.Int64
	var failMu sync.Mutex
	fail := func(format string, args ...any) {
		failMu.Lock()
		res.fail(format, args...)
		failMu.Unlock()
	}
	var round atomic.Int64 // -1 while warming up
	round.Store(-1)
	var stop atomic.Bool
	samples := make([][]rrSample, rrClients)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < rrClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clerk, tc, in := env.clerks[i], env.traced[i], inputs[i]
			for !stop.Load() {
				rid, body := in.next()
				r := int(round.Load())
				on := rec.active() && r >= 0
				var id uint64
				var s0 int64
				if on {
					id, s0 = rec.newID(), rec.now()
					tc.on, tc.parent, tc.rid = true, id, rid
					rec.roots.Store(rid, id)
				}
				attempted.Add(1)
				t0 := time.Now()
				rep, err := clerk.Transceive(ctx, rid, body, nil, nil)
				lat := time.Since(t0)
				if on {
					rec.add(span{ID: id, Name: spanTransceive, RID: rid, Start: s0, End: rec.now()})
					rec.roots.Delete(rid)
				}
				if tc != nil {
					tc.on = false
				}
				switch {
				case err != nil:
					fail("%s: transceive: %v", rid, err)
					continue
				case rep.RID != rid:
					fail("%s: reply carries rid %s", rid, rep.RID)
					continue
				case rep.Status != rrq.StatusOK || !bytes.Equal(rep.Body, body):
					fail("%s: reply status %s does not echo the request body", rid, rep.Status)
					continue
				}
				completed.Add(1)
				if r >= 0 {
					samples[i] = append(samples[i], rrSample{round: r, lat: lat, traced: on})
				}
			}
		}(i)
	}

	time.Sleep(rrWarmup)
	nrounds := max(2, int(cfg.seconds+0.5))
	roundLen := time.Duration(cfg.seconds * float64(time.Second) / float64(nrounds))
	before := env.reg.Snapshot()
	processed0, aborts0 := env.processed()
	start := time.Now()
	for r := 0; r < nrounds; r++ {
		if rec != nil {
			rec.on.Store(r%2 == 1)
		}
		round.Store(int64(r))
		time.Sleep(time.Until(start.Add(time.Duration(r+1) * roundLen)))
	}
	stop.Store(true)
	wg.Wait()
	if rec != nil {
		rec.on.Store(false)
	}
	after := env.reg.Snapshot()
	processed1, aborts1 := env.processed()

	// Output checks: one reply per rid (checked per call above), every
	// request executed once, nothing left in any queue.
	res.check("each Transceive's reply echoes its rid and body")
	processed, aborts := processed1, aborts1-aborts0
	if processed != uint64(completed.Load()) {
		res.fail("servers committed %d executions for %d completed requests", processed, completed.Load())
	}
	res.check("server executions equal completed requests")
	for _, q := range append([]string{rrQueue}, replyQueues(env)...) {
		d, err := env.node.Repo().Depth(q)
		if err != nil || d != 0 {
			res.fail("queue %s depth %d after the run (err %v): lost or duplicate reply", q, d, err)
		}
	}
	res.check("request and reply queues empty at the end")
	res.attempted = attempted.Load()

	var all []rrSample
	for _, s := range samples {
		all = append(all, s...)
	}
	var tracedLats, plainLats []float64
	byRound := make([][]float64, nrounds)
	for _, s := range all {
		us := float64(s.lat) / 1e3
		byRound[s.round] = append(byRound[s.round], us)
		if s.traced {
			tracedLats = append(tracedLats, us)
		} else {
			plainLats = append(plainLats, us)
		}
	}
	var rs rounds
	for _, lat := range byRound {
		rs.add(lat, roundLen)
	}
	rs.report(res, "Transceives")
	requests := float64(processed1 - processed0)
	res.note("setup_s is the median of %d set-ups: %v", len(setups), setups)

	res.metrics["core.server_aborts_per_request"] = ratio(float64(aborts), requests)
	registryMetrics(res, delta(before, after), requests)
	if rec != nil {
		spans, _ := rec.snapshot()
		rrLayerMetrics(res, spans)
		res.metrics["tracing_overhead_us"] = quantile(tracedLats, 0.5) - quantile(plainLats, 0.5)
		res.note("tracing overhead: traced-round p50 %.1fµs (%d samples) minus untraced-round p50 %.1fµs (%d samples)",
			quantile(tracedLats, 0.5), len(tracedLats), quantile(plainLats, 0.5), len(plainLats))
		reconcile(res, spans, mean(tracedLats))
		if err := rec.writeOut(res, cfg.out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func replyQueues(env *rrEnv) []string {
	var qs []string
	for _, c := range env.clerks {
		qs = append(qs, c.ReplyQueue())
	}
	return qs
}

// registryMetrics reports the per-request counts and latency quantiles
// the node's own registry recorded over the measurement (a delta).
func registryMetrics(res *result, d obs.Snapshot, requests float64) {
	commit := d.Histograms["txn.commit_ns"]
	res.metrics["txn.commits_per_request"] = ratio(float64(d.Counters["txn.committed"]), requests)
	res.metrics["txn.commit_ns_p50"] = float64(commit.Quantile(0.5))
	res.metrics["txn.commit_ns_p99"] = float64(commit.Quantile(0.99))
	res.metrics["lock.waits_per_request"] = ratio(float64(d.Counters["lock.waits"]), requests)
	res.metrics["queue.shard_lock_wait_ns_per_request"] = ratio(float64(d.Histograms["queue.shard_lock_wait_ns"].Sum), requests)
	group := d.Histograms["wal.group_size"]
	wait := d.Histograms["wal.group_wait_ns"]
	res.metrics["wal.group_size_mean"] = group.Mean()
	res.metrics["wal.group_wait_ns_p50"] = float64(wait.Quantile(0.5))
	res.metrics["wal.group_wait_ns_p99"] = float64(wait.Quantile(0.99))
	res.note("registry quantiles are upper edges of power-of-two buckets: txn.commit_ns over %d commits, wal.group_wait_ns over %d waits",
		commit.Count, wait.Count)
}

// rrLayerMetrics reports the seams' spans per traced request.
func rrLayerMetrics(res *result, spans []span) {
	requests := float64(statsFor(spans, spanTransceive).Count)
	enq, deq := statsFor(spans, spanEnqueue), statsFor(spans, spanDequeue)
	other := statsFor(spans, spanQMOther)
	res.metrics["qservice.enqueue_us_p50"] = enq.P50
	res.metrics["qservice.enqueue_us_p99"] = enq.P99
	res.metrics["qservice.dequeue_us_p50"] = deq.P50
	res.metrics["qservice.dequeue_us_p99"] = deq.P99
	res.metrics["core.qm_calls_per_request"] = ratio(float64(enq.Count+deq.Count+other.Count), requests)
	h := statsFor(spans, spanHandler)
	res.metrics["core.handler_us"] = ratio(h.TotalUS, float64(h.Count))
	walMetrics(res, spans, requests)
	ship := statsFor(spans, spanShip)
	res.metrics["replica.ship_us_p50"] = ship.P50
	res.metrics["replica.ship_us_p99"] = ship.P99
	res.metrics["replica.ships_per_request"] = ratio(float64(ship.Count), requests)
	res.metrics["replica.ship_bytes_per_request"] = ratio(float64(ship.Bytes), requests)
	res.note("spans: %d traced requests, %d enqueue, %d dequeue, %d other QMConn calls, %d handler runs, %d ships, %d wal writes, %d wal syncs",
		int(requests), enq.Count, deq.Count, other.Count, h.Count, ship.Count,
		statsFor(spans, spanWrite).Count, statsFor(spans, spanSync).Count)
}

// walMetrics reports the WAL seam's writes and fsyncs per request.
func walMetrics(res *result, spans []span, requests float64) {
	w, s := statsFor(spans, spanWrite), statsFor(spans, spanSync)
	res.metrics["wal.write_us_p50"] = w.P50
	res.metrics["wal.write_us_p99"] = w.P99
	res.metrics["wal.sync_us_p50"] = s.P50
	res.metrics["wal.sync_us_p99"] = s.P99
	res.metrics["wal.syncs_per_request"] = ratio(float64(s.Count), requests)
	res.metrics["wal.bytes_per_request"] = ratio(float64(w.Bytes), requests)
}

// reconcile splits the traced requests into the layer ledger and checks
// that the layer means add up to the mean Transceive the clerks timed.
func reconcile(res *result, spans []span, measured float64) {
	l := buildLedger(spans)
	sum := 0.0
	for _, layer := range ledgerLayers {
		sum += l.Self[layer]
	}
	res.metrics["ledger.clerk_us"] = l.Self[layerClerk]
	res.metrics["ledger.qservice_us"] = l.Self[layerQM]
	res.metrics["ledger.handler_us"] = l.Self[layerHandler]
	res.metrics["ledger.replica_us"] = l.Self[layerShip]
	res.metrics["ledger.wal_sync_us"] = l.Self[layerSync]
	res.metrics["ledger.wal_write_us"] = l.Self[layerWrite]
	res.metrics["ledger.transceive_us"] = measured
	res.metrics["unattributed_us"] = measured - sum
	res.note("%s; sum %.1f of measured mean Transceive %.1fµs, unattributed %.1fµs (tolerance ±%.0f%%)",
		l, sum, measured, measured-sum, ledgerTolerance*100)
	res.check("ledger reconciles with the measured Transceive mean")
	if l.Requests == 0 || measured == 0 || math.Abs(measured-sum) > ledgerTolerance*measured {
		res.fail("ledger sums to %.1fµs but the mean traced Transceive took %.1fµs (tolerance ±%.0f%%)",
			sum, measured, ledgerTolerance*100)
	}
}
