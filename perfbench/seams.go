package main

import (
	"context"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/replica"
	"repro/internal/wal"
)

// The decorators below sit on the public seams the stack exposes and
// record one span per call while their recorder is active. None changes
// what the call does.

// tracedConn wraps a clerk's QMConn. One clerk goroutine uses it, and it
// sets parent and rid before each Transceive, so the calls that
// Transceive makes become the request's children.
type tracedConn struct {
	inner  core.QMConn
	rec    *recorder
	on     bool   // whether the current request is traced
	parent uint64 // the current request's Transceive span
	rid    string
}

var _ core.QMConn = (*tracedConn)(nil)

func (c *tracedConn) record(name string, start int64) {
	if c.on {
		c.rec.add(span{Parent: c.parent, Name: name, RID: c.rid, Start: start, End: c.rec.now()})
	}
}

func (c *tracedConn) Register(ctx context.Context, qname, registrant string, stable bool) (queue.RegInfo, error) {
	t := c.rec.now()
	defer c.record(spanQMOther, t)
	return c.inner.Register(ctx, qname, registrant, stable)
}

func (c *tracedConn) Deregister(ctx context.Context, qname, registrant string) error {
	t := c.rec.now()
	defer c.record(spanQMOther, t)
	return c.inner.Deregister(ctx, qname, registrant)
}

func (c *tracedConn) Enqueue(ctx context.Context, qname string, e queue.Element, registrant string, tag []byte) (queue.EID, error) {
	t := c.rec.now()
	defer c.record(spanEnqueue, t)
	return c.inner.Enqueue(ctx, qname, e, registrant, tag)
}

func (c *tracedConn) EnqueueOneWay(qname string, e queue.Element, registrant string, tag []byte) error {
	t := c.rec.now()
	defer c.record(spanEnqueue, t)
	return c.inner.EnqueueOneWay(qname, e, registrant, tag)
}

func (c *tracedConn) Dequeue(ctx context.Context, qname, registrant string, tag []byte, wait time.Duration, match map[string]string) (queue.Element, error) {
	t := c.rec.now()
	defer c.record(spanDequeue, t)
	return c.inner.Dequeue(ctx, qname, registrant, tag, wait, match)
}

func (c *tracedConn) ReadLast(ctx context.Context, qname, registrant string) (queue.Element, error) {
	t := c.rec.now()
	defer c.record(spanQMOther, t)
	return c.inner.ReadLast(ctx, qname, registrant)
}

func (c *tracedConn) KillElement(ctx context.Context, eid queue.EID) (bool, error) {
	t := c.rec.now()
	defer c.record(spanQMOther, t)
	return c.inner.KillElement(ctx, eid)
}

func (c *tracedConn) CreateQueue(ctx context.Context, cfg queue.QueueConfig) error {
	t := c.rec.now()
	defer c.record(spanQMOther, t)
	return c.inner.CreateQueue(ctx, cfg)
}

// tracedHandler records each run of h under the request's rid.
func tracedHandler(rec *recorder, h core.Handler) core.Handler {
	return func(rc *core.ReqCtx) ([]byte, error) {
		if !rec.active() {
			return h(rc)
		}
		t := rec.now()
		body, err := h(rc)
		rid := rc.Request.RID
		rec.add(span{Parent: rec.parentOf(rid), Name: spanHandler, RID: rid, Start: t, End: rec.now()})
		return body, err
	}
}

// tracedTransport records each replication exchange with the bytes it
// shipped.
type tracedTransport struct {
	inner replica.Transport
	rec   *recorder
}

func (t tracedTransport) Exchange(ctx context.Context, req []byte) ([]byte, error) {
	if !t.rec.active() {
		return t.inner.Exchange(ctx, req)
	}
	start := t.rec.now()
	resp, err := t.inner.Exchange(ctx, req)
	t.rec.add(span{Name: spanShip, Start: start, End: t.rec.now(), Bytes: int64(len(req))})
	return resp, err
}

// tracedFS is a wal.VFS over the real filesystem whose files record
// every write and fsync.
type tracedFS struct{ rec *recorder }

func (fs tracedFS) OpenAppend(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: f, rec: fs.rec}, nil
}

type tracedFile struct {
	wal.File
	rec *recorder
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.rec.active() {
		return f.File.Write(p)
	}
	start := f.rec.now()
	n, err := f.File.Write(p)
	f.rec.add(span{Name: spanWrite, Start: start, End: f.rec.now(), Bytes: int64(n)})
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.rec.active() {
		return f.File.Sync()
	}
	start := f.rec.now()
	err := f.File.Sync()
	f.rec.add(span{Name: spanSync, Start: start, End: f.rec.now()})
	return err
}
