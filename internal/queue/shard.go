package queue

import (
	"container/list"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/txn"
)

// Concurrency control is striped per queue (see DESIGN.md §8). The lock
// order, outermost first, is:
//
//	r.mu (RWMutex over the queue map) → queueState.mu (two shards in
//	ascending name order) → elemTable stripe → regMu / trigMu / kvMu /
//	setWaiter.mu → alertMu
//
// The WAL is never appended to — and redo records are never staged —
// while a shard lock is held; transactions stage records after the shard
// critical section and the commit path orders them. r.mu is never
// acquired while holding a shard lock (an RWMutex blocks new readers
// once a writer waits, so shard→repo would deadlock against DDL).

// elemState tracks an element's transactional visibility.
type elemState int8

const (
	// statePending: enqueued by an uncommitted transaction; invisible.
	statePending elemState = iota
	// stateVisible: committed and available for dequeue.
	stateVisible
	// stateDequeued: removed by an uncommitted transaction; invisible to
	// dequeuers but still present (its committed state is "in the queue").
	stateDequeued
)

// elem is the in-memory representation of one element. All fields except
// q are guarded by the shard lock of the queue currently holding the
// element; q itself is atomic because error-queue diversion moves an
// element between shards and eid-addressed readers must chase it (see
// lockElem).
type elem struct {
	e      Element
	state  elemState
	owner  *txn.Txn // while pending or dequeued
	killed bool     // killed while dequeued; dropped on owner's abort
	node   *list.Element
	q      atomic.Pointer[queueState]

	// visibleAt is when (unix ns) the element, if traced, last became
	// visible — enqueue commit, abort return, or recovery — and anchors
	// the start of the queue-residency "dequeue" span. Zero for
	// untraced elements. An int64 rather than a time.Time to keep the
	// per-element footprint small.
	visibleAt int64
}

// queueState is one queue's in-memory structure — per-priority FIFO
// lists — plus its own latch and condition variable, so operations on
// disjoint queues never serialize and a visibility change wakes only
// this queue's waiters.
type queueState struct {
	name     string // immutable copy of cfg.Name (lock-free reads)
	volatile bool   // immutable copy of cfg.Volatile (lock-free reads)

	mu   sync.Mutex
	cond *sync.Cond // signaled on this queue's visibility changes
	// setWaiters are DequeueSet waiters subscribed to this queue; a
	// commit here fires only the sets that include this queue.
	setWaiters map[*setWaiter]struct{}
	dead       bool // destroyed; parked callers must re-resolve by name

	// errEmpty is the queue's pre-wrapped ErrEmpty, built once so the
	// non-blocking dequeue poll loop doesn't pay fmt.Errorf per miss.
	errEmpty error

	cfg     QueueConfig // writes hold r.mu (W) AND mu; reads hold either
	lists   map[int32]*list.List
	prios   []int32 // sorted descending
	stopped bool    // writes hold r.mu (W) AND mu; reads hold either
	stats   QueueStats
	m       qmetrics

	// nwait counts dequeuers parked on cond (guarded by mu). The fast
	// path must stay sealed while anyone is parked, because ring enqueues
	// do not signal cond.
	nwait int

	// mShardWait is the repository's shard-lock contention histogram
	// (shared across queues; see lock()).
	mShardWait *obs.Histogram

	// --- lock-free volatile fast path (see ring.go and DESIGN.md §10) ---
	//
	// ring is non-nil iff the queue's config is ring-eligible (volatile,
	// non-strict-FIFO, unlimited depth, no alerts/redirect). fastMode
	// gates whether auto-commit unfiltered ops may use it; when true the
	// locked lists are empty, so ring-empty ⇒ queue-empty. Any operation
	// that needs the locked lists seals first (sealFastLocked): flips
	// fastMode off, waits out the fastOps in-flight gate, and drains ring
	// contents into the lists under mu. fastMode is re-enabled only at
	// quiescence (maybeReopenFastLocked).
	ring     *ring
	fastMode atomic.Bool
	fastOps  atomic.Int64 // in-flight ring ops (enter/exit gate)

	// Fast-path op accounting, merged into stats by Repository.Stats:
	// fastEnqs/fastDeqs count ring pushes/pops; fastDrained counts
	// elements moved ring→lists by seals (they re-enter locked Depth, so
	// the merge subtracts them from the fast-resident count).
	fastEnqs    atomic.Uint64
	fastDeqs    atomic.Uint64
	fastDrained atomic.Uint64

	// Full-ring rule (see awaitPop): fullMark is fastDeqs as of the last
	// full-ring handoff to the locked path; ringWaiters counts producers
	// waiting on ringSpace for a ring pop, a seal, a drain or a reopen
	// to wake them; handoff is the recovery state of the last handoff
	// (see awaitReopen).
	fullMark    atomic.Uint64
	ringWaiters atomic.Int32
	ringSpace   chan struct{}
	handoff     atomic.Int32

	// elems is the repository's eid index (fast enqueues don't register
	// there; sealing does — see sealFastLocked and drainFastResident).
	elems *elemTable
}

// ringEligible reports whether a config permits the lock-free fast path
// at all: volatile (never logged), no strict-FIFO blocking semantics, no
// depth limit or alert threshold to enforce per-op, and not a redirect
// source. Per-op gates (txn, priority, filters, waiters, triggers) are
// checked at the call sites in ops.go.
func ringEligible(cfg *QueueConfig) bool {
	return cfg.Volatile && !cfg.StrictFIFO && cfg.MaxDepth == 0 &&
		cfg.AlertThreshold == 0 && cfg.RedirectTo == ""
}

// enterFast joins the fast-path in-flight gate. On true the caller may
// operate on q.ring and must call exitFast when done; on false the queue
// is sealed (or sealing) and the caller must take the locked path. The
// re-check after the increment closes the race with a concurrent sealer:
// either the sealer sees our increment and waits, or we see its flip and
// back out.
func (q *queueState) enterFast() bool {
	if !q.fastMode.Load() {
		return false
	}
	q.fastOps.Add(1)
	if !q.fastMode.Load() {
		q.fastOps.Add(-1)
		return false
	}
	return true
}

func (q *queueState) exitFast() { q.fastOps.Add(-1) }

// pushFast publishes *e through the ring. Called inside the enterFast
// gate, which it always leaves. It returns false, with e not published,
// when the queue was sealed meanwhile or the ring is full with no
// consumer draining it; the caller then hands e to the locked path.
func (q *queueState) pushFast(e *Element) bool {
	for {
		if q.ring.push(e) {
			q.fastEnqs.Add(1)
			q.m.enqueues.Inc()
			q.m.depth.Add(1)
			q.exitFast()
			return true
		}
		q.exitFast()
		if !q.awaitPop() || !q.enterFast() {
			q.wakeRingWaiter() // pass a seal's wakeup on to the next producer
			return false
		}
	}
}

// awaitPop is the full-ring rule. A producer that found the ring full
// yields a few times, which lets a consumer sharing its P pop. If none
// did, it waits further only on evidence that a consumer is draining the
// ring: one has popped since the last handoff (fastDeqs moved past
// fullMark; seal drains never move fastDeqs). Without evidence the
// backlog is simply deeper than the ring, which is what the locked lists
// are for, and awaitPop reports false at once: the caller hands off.
// With it, the producer parks, outside the gate so a sealer never waits
// on it, until a pop moves fastDeqs or the queue is sealed. Parking also
// lets a consumer that Gosched cannot reach (on another P of an
// oversubscribed host) run.
//
// The park ends on the consumer's own signal — each pop wakes one parked
// producer (countFastDeq) — not on a sample taken after a timer. The
// timer only bounds the wait for a consumer that has stopped: ringFullWait,
// stretched in ringFullWait steps up to ringBusyWait once consumers have
// popped a segment's worth since the last handoff — a consumer with that
// much history that pauses has more likely been descheduled than left.
// A wait that runs out moves fullMark up to fastDeqs: the evidence is
// spent only by a producer that gave up on it, so producers sharing a
// queue do not use up each other's.
func (q *queueState) awaitPop() bool {
	deqs := q.fastDeqs.Load()
	popped := func() bool { return q.fastDeqs.Load() != deqs || !q.fastMode.Load() }
	for i := 0; i < ringSpinYields; i++ {
		runtime.Gosched()
		if popped() {
			return true
		}
	}
	mark := q.fullMark.Load()
	if deqs == mark {
		return false
	}
	seasoned := deqs-mark >= ringSegSlots
	// Registering before the loop check pairs with countFastDeq (bump
	// fastDeqs, then read ringWaiters) and sealFastLocked (clear
	// fastMode, then wake): either the check sees the change, or its
	// wakeup finds this producer registered. A wakeup left over from an
	// earlier wait just re-runs the check.
	q.ringWaiters.Add(1)
	defer q.ringWaiters.Add(-1)
	q.m.fullWaits.Inc()
	start := time.Now()
	defer func() { q.m.fullWaitNs.Observe(time.Since(start).Nanoseconds()) }()
	t := time.NewTimer(ringFullWait)
	defer t.Stop()
	for !popped() {
		select {
		case <-q.ringSpace:
		case <-t.C:
			if popped() {
				return true
			}
			if seasoned && time.Since(start) < ringBusyWait {
				t.Reset(ringFullWait)
				continue
			}
			q.fullMark.Store(q.fastDeqs.Load())
			return false
		}
	}
	return true
}

// Recovery states of a full-ring handoff (queueState.handoff).
const (
	handoffNone     = iota // ring open, or sealed for another reason
	handoffSealed          // a full-ring handoff sealed the ring (enqueueFastLocked)
	handoffDraining        // ...and a consumer is draining a short backlog
)

// noteLockedDeq is called under q.mu after an auto-commit dequeue served
// by the locked lists. Once a consumer drains what a handoff left behind
// and the backlog is at most ringRecoverDepth, producers wait for the
// ring to reopen rather than keep the lists fed (awaitReopen); each such
// dequeue is their sign of progress.
func (q *queueState) noteLockedDeq() {
	switch q.handoff.Load() {
	case handoffSealed:
		if q.stats.Depth > ringRecoverDepth {
			return
		}
		q.handoff.Store(handoffDraining)
	case handoffNone:
		return
	}
	q.wakeRingWaiter()
}

// awaitReopen parks a ring-eligible producer while a consumer drains the
// short backlog a full-ring handoff left in the locked lists. A handoff
// can be false — the consumer was descheduled for longer than
// ringFullWait, or had not run yet — and the ring reopens only once the
// lists are empty (maybeReopenFastLocked); a producer that kept feeding
// the lists at the rate the consumer empties them would keep both on the
// locked path for good. It returns when the ring reopens, or gives up,
// ending the recovery, when no dequeue lands for ringFullWait. Called
// with no locks held.
func (q *queueState) awaitReopen() {
	q.ringWaiters.Add(1)
	defer q.ringWaiters.Add(-1)
	deadline := time.Now().Add(ringFullWait)
	t := time.NewTimer(ringFullWait)
	defer t.Stop()
	for !q.fastMode.Load() {
		select {
		case <-q.ringSpace:
			deadline = time.Now().Add(ringFullWait)
		case <-t.C:
			left := time.Until(deadline)
			if left <= 0 {
				q.handoff.CompareAndSwap(handoffDraining, handoffNone)
				return
			}
			t.Reset(left)
		}
	}
	q.wakeRingWaiter() // pass the reopen on to the next producer
}

// countFastDeq counts one ring pop and wakes a producer waiting for room.
func (q *queueState) countFastDeq() {
	q.fastDeqs.Add(1)
	q.wakeRingWaiter()
}

// wakeRingWaiter wakes one producer parked in awaitPop or awaitReopen,
// if any.
func (q *queueState) wakeRingWaiter() {
	if q.ringWaiters.Load() == 0 {
		return
	}
	select {
	case q.ringSpace <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// sealFastLocked transitions the queue to locked mode: no new ring ops
// can start, in-flight ones are waited out, and ring contents are drained
// into the locked lists (registering each element in the eid index) so the
// caller sees the complete queue. Caller holds q.mu. Idempotent; cheap
// when already sealed or never opened.
func (q *queueState) sealFastLocked() {
	if q.ring == nil || !q.fastMode.Load() {
		return
	}
	q.fastMode.Store(false)
	q.m.seals.Inc()
	for q.fastOps.Load() != 0 {
		runtime.Gosched()
	}
	var e Element
	for {
		switch q.ring.pop(&e) {
		case ringOK:
			el := &elem{e: e, state: stateVisible}
			el.q.Store(q)
			q.insert(el)
			q.elems.put(e.EID, el)
			// The enqueue was already counted (fastEnqs, m.depth); only
			// the locked-side Depth moves here, and fastDrained keeps the
			// Stats merge from counting the element twice.
			q.stats.Depth++
			q.fastDrained.Add(1)
		case ringEmpty:
			if q.stats.Depth > q.stats.MaxDepth {
				q.stats.MaxDepth = q.stats.Depth
			}
			q.wakeRingWaiter() // a parked producer must take the locked path
			return
		case ringInflight:
			// Unreachable after the gate drained, but harmless: yield and
			// re-pop rather than risk dropping a published element.
			runtime.Gosched()
		}
	}
}

// maybeReopenFastLocked re-enables the fast path when the queue is fully
// quiescent: configured eligible, alive, started, no parked dequeuers or
// set waiters (ring enqueues don't signal cond), and no live elements in
// the locked lists (preserving the fastMode ⇒ lists-empty invariant).
// Caller holds q.mu.
func (q *queueState) maybeReopenFastLocked() {
	if q.ring == nil || q.fastMode.Load() || q.dead || q.stopped {
		return
	}
	if q.nwait != 0 || len(q.setWaiters) != 0 {
		return
	}
	if !ringEligible(&q.cfg) || q.live() != 0 {
		return
	}
	q.fastMode.Store(true)
	if q.handoff.Swap(handoffNone) != handoffNone {
		q.wakeRingWaiter()
	}
}

// lock acquires the shard latch, observing the wait only when contended
// (TryLock first keeps the uncontended fast path free of clock reads).
func (q *queueState) lock() {
	if q.mu.TryLock() {
		return
	}
	t0 := time.Now()
	q.mu.Lock()
	q.mShardWait.Observe(time.Since(t0).Nanoseconds())
}

func (q *queueState) unlock() { q.mu.Unlock() }

// notifyLocked wakes this queue's parked dequeuers and any queue-set
// waiters subscribed to it. Caller holds q.mu.
func (q *queueState) notifyLocked() {
	q.cond.Broadcast()
	for sw := range q.setWaiters {
		sw.fire()
	}
}

// lockPair locks one or two shards in ascending name order — the
// repository-wide two-shard order (error-queue diversion, abort-return
// replay). b may be nil or equal to a.
func lockPair(a, b *queueState) {
	if b == nil || b == a {
		a.lock()
		return
	}
	if b.name < a.name {
		a, b = b, a
	}
	a.lock()
	b.lock()
}

func unlockPair(a, b *queueState) {
	a.unlock()
	if b != nil && b != a {
		b.unlock()
	}
}

// setWaiter is a DequeueSet's wakeup token, registered on every member
// queue so that a commit on any one of them wakes the set — and nothing
// else does. fire is safe to call with shard locks held (setWaiter.mu is
// a leaf); wait is called with no locks held.
type setWaiter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	fired bool
}

func newSetWaiter() *setWaiter {
	w := &setWaiter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *setWaiter) fire() {
	w.mu.Lock()
	w.fired = true
	w.cond.Signal()
	w.mu.Unlock()
}

// wait parks until the next fire. A fire that lands before wait is not
// lost: the fired flag stays set until consumed here.
func (w *setWaiter) wait() {
	w.mu.Lock()
	for !w.fired {
		w.cond.Wait()
	}
	w.fired = false
	w.mu.Unlock()
}

// elemTable is the eid → element index, striped so eid-addressed reads
// (Read, KillElement) and hot-path insert/delete don't share one lock.
const elemStripes = 64

type elemTable struct {
	stripes [elemStripes]elemStripe
}

type elemStripe struct {
	mu sync.Mutex
	m  map[EID]*elem
}

func newElemTable() *elemTable {
	t := &elemTable{}
	for i := range t.stripes {
		t.stripes[i].m = make(map[EID]*elem)
	}
	return t
}

func (t *elemTable) stripe(eid EID) *elemStripe {
	return &t.stripes[uint64(eid)%elemStripes]
}

func (t *elemTable) put(eid EID, el *elem) {
	s := t.stripe(eid)
	s.mu.Lock()
	s.m[eid] = el
	s.mu.Unlock()
}

func (t *elemTable) get(eid EID) (*elem, bool) {
	s := t.stripe(eid)
	s.mu.Lock()
	el, ok := s.m[eid]
	s.mu.Unlock()
	return el, ok
}

func (t *elemTable) del(eid EID) {
	s := t.stripe(eid)
	s.mu.Lock()
	delete(s.m, eid)
	s.mu.Unlock()
}

// lockElem locks the shard currently holding el, revalidating after each
// acquisition: an abort-time error diversion can move an element between
// queues, and DestroyQueue can drop its queue wholesale. Returns nil —
// with no lock held — when el is no longer live.
func (r *Repository) lockElem(el *elem) *queueState {
	for {
		qs := el.q.Load()
		qs.lock()
		if el.q.Load() == qs {
			if qs.dead || el.node == nil {
				qs.unlock()
				return nil
			}
			return qs
		}
		qs.unlock()
	}
}

// qmetrics holds the queue's registry instruments, resolved once at queue
// creation so the per-operation cost is a single atomic add. Every
// qs.stats bump is mirrored here; the stats struct stays the synchronous
// per-queue API while the registry gives the cross-layer labeled view.
type qmetrics struct {
	enqueues   *obs.Counter
	dequeues   *obs.Counter
	requeues   *obs.Counter // abort-returns back onto the queue
	kills      *obs.Counter
	diversions *obs.Counter // retry-limit diversions to the error queue
	depth      *obs.Gauge
	inFlight   *obs.Gauge

	// Ring handoff instruments, repository-wide (unlabeled): seals count
	// fast→locked transitions; fullWaits/fullWaitNs count and time the
	// episodes in which a producer waited for a consumer to drain a full
	// ring (see awaitPop).
	seals      *obs.Counter
	fullWaits  *obs.Counter
	fullWaitNs *obs.Histogram
}

// newQueueState builds a queue's state with instruments labeled by queue
// name. Counters for a re-created queue continue from the prior
// incarnation's values (cumulative by design); the depth gauge is zeroed
// on destroy so it always reflects live visible depth.
func (r *Repository) newQueueState(cfg QueueConfig) *queueState {
	qs := &queueState{
		name:       cfg.Name,
		volatile:   cfg.Volatile,
		errEmpty:   fmt.Errorf("%w: %s", ErrEmpty, cfg.Name),
		cfg:        cfg,
		lists:      make(map[int32]*list.List),
		setWaiters: make(map[*setWaiter]struct{}),
		mShardWait: r.mShardWait,
		elems:      r.elems,
	}
	qs.cond = sync.NewCond(&qs.mu)
	if ringEligible(&cfg) {
		qs.ring = newRing()
		qs.ringSpace = make(chan struct{}, 1)
		qs.fastMode.Store(true)
	}
	qs.m = qmetrics{
		enqueues:   r.reg.Counter("queue.enqueues", "queue", cfg.Name),
		dequeues:   r.reg.Counter("queue.dequeues", "queue", cfg.Name),
		requeues:   r.reg.Counter("queue.requeues", "queue", cfg.Name),
		kills:      r.reg.Counter("queue.kills", "queue", cfg.Name),
		diversions: r.reg.Counter("queue.error_diversions", "queue", cfg.Name),
		depth:      r.reg.Gauge("queue.depth", "queue", cfg.Name),
		inFlight:   r.reg.Gauge("queue.in_flight", "queue", cfg.Name),
		seals:      r.reg.Counter("queue.ring_seals"),
		fullWaits:  r.reg.Counter("queue.ring_full_waits"),
		fullWaitNs: r.reg.Histogram("queue.ring_full_wait_ns"),
	}
	return qs
}

func (q *queueState) countEnqueue()   { q.stats.Enqueues++; q.m.enqueues.Inc() }
func (q *queueState) countDequeue()   { q.stats.Dequeues++; q.m.dequeues.Inc() }
func (q *queueState) countRequeue()   { q.stats.AbortReturns++; q.m.requeues.Inc() }
func (q *queueState) countKill()      { q.stats.Kills++; q.m.kills.Inc() }
func (q *queueState) countDiversion() { q.stats.ErrorDiversions++; q.m.diversions.Inc() }

func (q *queueState) bumpInFlight(delta int) {
	q.stats.InFlight += delta
	q.m.inFlight.Add(int64(delta))
}

func (q *queueState) listFor(prio int32) *list.List {
	l, ok := q.lists[prio]
	if !ok {
		l = list.New()
		q.lists[prio] = l
		q.prios = append(q.prios, prio)
		sort.Slice(q.prios, func(i, j int) bool { return q.prios[i] > q.prios[j] })
	}
	return l
}

// insert places el into FIFO position within its priority (ordered by seq,
// so recovery re-inserts in original order even when replay order differs).
func (q *queueState) insert(el *elem) {
	l := q.listFor(el.e.Priority)
	for n := l.Back(); n != nil; n = n.Prev() {
		if n.Value.(*elem).e.seq <= el.e.seq {
			el.node = l.InsertAfter(el, n)
			return
		}
	}
	el.node = l.PushFront(el)
}

func (q *queueState) remove(el *elem) {
	if el.node != nil {
		q.lists[el.e.Priority].Remove(el.node)
		el.node = nil
	}
}

// live counts elements in any state (pending, visible, dequeued).
func (q *queueState) live() int {
	n := 0
	for _, l := range q.lists {
		n += l.Len()
	}
	return n
}

func (q *queueState) bumpDepth(delta int) {
	q.stats.Depth += delta
	if q.stats.Depth > q.stats.MaxDepth {
		q.stats.MaxDepth = q.stats.Depth
	}
	q.m.depth.Add(int64(delta))
}
