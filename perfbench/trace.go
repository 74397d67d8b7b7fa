package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per seam the benchmark wraps.
const (
	spanTransceive = "clerk.transceive" // ResilientClerk.Transceive, per request
	spanEnqueue    = "qmconn.enqueue"   // QMConn.Enqueue round trip (the clerk's Send)
	spanDequeue    = "qmconn.dequeue"   // QMConn.Dequeue round trip (the clerk's Receive)
	spanQMOther    = "qmconn.other"     // any other QMConn call (resync, registration)
	spanHandler    = "core.handler"     // the server's Handler, inside its transaction
	spanShip       = "replica.ship"     // one replication exchange, with its bytes
	spanWrite      = "wal.write"        // one WAL segment write, with its bytes
	spanSync       = "wal.sync"         // one WAL segment fsync
)

// span is one timed call at a seam. Start and End are nanoseconds since
// the recorder's epoch. Parent is 0 for a root; batch-level spans (ship,
// write, sync) serve many requests and are roots with their byte count.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	RID    string `json:"rid,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while it is on. A nil recorder records
// nothing, so the untraced run pays one nil check per seam.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	roots sync.Map // rid -> its Transceive span's id, while in flight

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active reports whether a span started now would be recorded.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// parentOf returns the in-flight Transceive span of rid, or 0.
func (r *recorder) parentOf(rid string) uint64 {
	if id, ok := r.roots.Load(rid); ok {
		return id.(uint64)
	}
	return 0
}

// maxSpans bounds the recorder's memory; spans beyond it are counted
// and dropped.
const maxSpans = 250_000

func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far and how many were dropped.
func (r *recorder) snapshot() ([]span, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// writeOut writes the recorded spans to path and notes it in res.
func (r *recorder) writeOut(res *result, path string) error {
	spans, dropped := r.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	res.note("%d spans written to %s (%d dropped over the %d cap)", len(spans), path, dropped, maxSpans)
	return nil
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Ledger layers, in the order the ledger prints them. Where two seams
// cover the same instant of a request's wait, the earlier layer in
// claimOrder gets it.
const (
	layerClerk   = "clerk"    // Transceive time outside any QMConn call
	layerQM      = "qservice" // QMConn time no deeper seam covers: rpc, qservice, queue, txn
	layerHandler = "handler"  // the server's handler
	layerShip    = "replica"  // replication exchanges
	layerSync    = "wal.sync" // WAL fsyncs
	layerWrite   = "wal.write"
)

var ledgerLayers = []string{layerClerk, layerQM, layerHandler, layerShip, layerSync, layerWrite}

var claimOrder = map[string]int{spanHandler: 0, spanShip: 1, spanSync: 2, spanWrite: 3}

var claimLayer = map[string]string{spanHandler: layerHandler, spanShip: layerShip, spanSync: layerSync, spanWrite: layerWrite}

// ledger splits each traced request's Transceive into layer self times.
// A layer's self time is the part of the request's interval its seam
// covers and no seam ranked before it does; what no deeper seam covers
// inside a QMConn call is the QMConn seam's own (rpc, qservice, queue,
// txn). Batch spans are charged to every request waiting while they ran.
type ledger struct {
	Requests int                // traced Transceives
	Self     map[string]float64 // layer -> mean self time per request, µs
}

func buildLedger(spans []span) ledger {
	l := ledger{Self: make(map[string]float64)}
	var roots []span
	children := make(map[uint64][]span) // Transceive id -> QMConn calls
	handlers := make(map[uint64][]span) // Transceive id -> handler runs
	var batch []span
	for _, s := range spans {
		switch s.Name {
		case spanTransceive:
			roots = append(roots, s)
		case spanEnqueue, spanDequeue, spanQMOther:
			children[s.Parent] = append(children[s.Parent], s)
		case spanHandler:
			handlers[s.Parent] = append(handlers[s.Parent], s)
		case spanShip, spanSync, spanWrite:
			batch = append(batch, s)
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Start < batch[j].Start })
	var longest int64
	for _, s := range batch {
		if s.dur() > longest {
			longest = s.dur()
		}
	}
	sums := make(map[string]int64)
	for _, t := range roots {
		inQM := int64(0)
		for _, q := range children[t.ID] {
			inQM += q.dur()
			var cover []span
			for _, h := range handlers[t.ID] {
				if h.End > q.Start && h.Start < q.End {
					cover = append(cover, h)
				}
			}
			i := sort.Search(len(batch), func(i int) bool { return batch[i].Start >= q.Start-longest })
			for ; i < len(batch) && batch[i].Start < q.End; i++ {
				if batch[i].End > q.Start {
					cover = append(cover, batch[i])
				}
			}
			claimed := partition(q.Start, q.End, cover, sums)
			sums[layerQM] += q.dur() - claimed
		}
		sums[layerClerk] += t.dur() - inQM
	}
	l.Requests = len(roots)
	if l.Requests == 0 {
		return l
	}
	n := float64(l.Requests)
	for _, layer := range ledgerLayers {
		l.Self[layer] = float64(sums[layer]) / n / 1e3
	}
	return l
}

// partition charges each instant of [a, b) that some span in cover
// covers to the highest-ranked such span's layer, adding the time to
// sums, and returns the total time charged.
func partition(a, b int64, cover []span, sums map[string]int64) int64 {
	if len(cover) == 0 {
		return 0
	}
	cuts := []int64{a, b}
	for _, c := range cover {
		cuts = append(cuts, max(a, c.Start), min(b, c.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var claimed int64
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		best := ""
		for _, c := range cover {
			if c.Start <= lo && c.End >= hi && (best == "" || claimOrder[c.Name] < claimOrder[best]) {
				best = c.Name
			}
		}
		if best != "" {
			sums[claimLayer[best]] += hi - lo
			claimed += hi - lo
		}
	}
	return claimed
}

// spanStats summarises one span name's durations (µs) and bytes.
type spanStats struct {
	Count    int
	P50, P99 float64
	Bytes    int64
	TotalUS  float64
}

func statsFor(spans []span, name string) spanStats {
	var d []float64
	var st spanStats
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.dur())/1e3)
			st.Bytes += s.Bytes
			st.TotalUS += float64(s.dur()) / 1e3
		}
	}
	st.Count = len(d)
	st.P50 = quantile(d, 0.5)
	st.P99 = quantile(d, 0.99)
	return st
}

func (l ledger) String() string {
	s := fmt.Sprintf("ledger over %d traced requests (µs per request):", l.Requests)
	for _, layer := range ledgerLayers {
		s += fmt.Sprintf(" %s=%.1f", layer, l.Self[layer])
	}
	return s
}
