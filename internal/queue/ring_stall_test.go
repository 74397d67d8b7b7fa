package queue

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFullRingStallBound bounds the slowest auto-commit enqueue into a
// volatile queue whose backlog outgrows the ring. A full ring must hand
// the element to the locked lists at once when no ring consumer is
// draining it, and wait at most one ringFullWait for a consumer that
// popped a few elements and stopped. Each case fills the queue with
// 2×ringCap elements three times, draining it between fills so the ring
// reopens. (A producer that parks on timers until the handoff, ~56 of
// them at ~1ms each, fails every fill by tens of milliseconds.)
//
// Two kinds of noise are kept out of the bounds. Garbage collection is
// off while the test runs: the handoff's seal allocates ~270KB at once
// (an elem and a list node per drained element), and a collection that
// happens to be marking then charges that enqueue a mark assist of ~1ms —
// a cost of allocating during GC that any locked-path operation pays, not
// of the full-ring rule. And on a shared host a vCPU preemption can stall
// any single call for milliseconds, so a case gets stallAttempts fresh
// repositories and passes if one of them meets every bound; a stall the
// code causes recurs in every attempt.
func TestFullRingStallBound(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bounds; the race detector slows the seal-drain several-fold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const stallAttempts = 5
	for _, tc := range []stallCase{
		{name: "no consumer ever", pairs: 0, firstMax: time.Millisecond, waits: 0},
		{name: "stale consumer", pairs: 10, firstMax: 5 * time.Millisecond, waits: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var over []string
			for attempt := 0; attempt < stallAttempts; attempt++ {
				if over = tc.run(t); len(over) == 0 {
					return
				}
				t.Logf("attempt %d over its bounds: %s", attempt, strings.Join(over, "; "))
			}
			t.Fatalf("all %d attempts exceeded a bound; last: %s", stallAttempts, strings.Join(over, "; "))
		})
	}
}

type stallCase struct {
	name  string
	pairs int // ring enqueue/dequeue pairs run before the consumer leaves
	// firstMax bounds the first fill's slowest enqueue; later fills must
	// stay under time.Millisecond.
	firstMax time.Duration
	waits    uint64 // full-ring wait episodes expected
}

// run fills and drains a fresh repository and returns the fills whose
// slowest enqueue exceeded its bound. Anything else amiss fails t.
func (tc stallCase) run(t *testing.T) []string {
	t.Helper()
	const fills = 3
	reg := obs.NewRegistry()
	r, _, err := Open(t.TempDir(), Options{NoFsync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustCreate(t, r, QueueConfig{Name: "v", Volatile: true})
	ctx := context.Background()
	for i := 0; i < tc.pairs; i++ {
		if _, err := r.Enqueue(nil, "v", Element{}, "", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	var over []string
	for fill := 0; fill < fills; fill++ {
		var worst time.Duration
		for i := 0; i < 2*ringCap; i++ {
			start := time.Now()
			if _, err := r.Enqueue(nil, "v", Element{}, "", nil); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > worst {
				worst = d
			}
		}
		limit := time.Millisecond
		if fill == 0 {
			limit = tc.firstMax
		}
		t.Logf("fill %d: slowest enqueue %v (limit %v)", fill, worst, limit)
		if worst > limit {
			over = append(over, fmt.Sprintf("fill %d took %v, want <= %v", fill, worst, limit))
		}
		for n := 0; ; n++ {
			_, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{})
			if errors.Is(err, ErrEmpty) {
				if n != 2*ringCap {
					t.Fatalf("fill %d: drained %d elements, want %d", fill, n, 2*ringCap)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := counterOf(reg.Snapshot(), "queue.ring_full_waits"); got != tc.waits {
		t.Fatalf("queue.ring_full_waits = %d, want %d", got, tc.waits)
	}
	return over
}

// TestFullRingMultiProducer runs several producers against one consumer
// on a volatile queue with GOMAXPROCS above the core count, so the ring
// is full most of the time. Consumer evidence must be shared: a producer
// that finds the ring full must not use up the evidence of a pop for the
// next producer, or each of them hands off in turn and the queue runs on
// the locked path. As in TestFastpathOversubscribedYieldEscalation, the
// fallback fraction stays a rounding error when the rule holds.
func TestFullRingMultiProducer(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	reg := obs.NewRegistry()
	r, _, err := Open(t.TempDir(), Options{NoFsync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	mustCreate(t, r, QueueConfig{Name: "v", Volatile: true})

	const (
		producers = 3
		perProd   = 10000
	)
	// The consumer runs first, so the ring never fills before its
	// first pop.
	if _, err := r.Enqueue(nil, "v", Element{}, "", nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{}); err != nil {
		t.Fatal(err)
	}
	base := reg.Snapshot()
	var wg sync.WaitGroup
	wg.Add(producers + 1)
	for p := 0; p < producers; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if _, err := r.Enqueue(nil, "v", Element{}, "", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < producers*perProd; i++ {
			for {
				_, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{})
				if err == nil {
					break
				}
				if !errors.Is(err, ErrEmpty) {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()

	end := reg.Snapshot()
	hits := counterOf(end, "queue.fastpath_hits") - counterOf(base, "queue.fastpath_hits")
	falls := counterOf(end, "queue.fastpath_fallbacks") - counterOf(base, "queue.fastpath_fallbacks")
	total := hits + falls
	if falls*20 > total {
		t.Fatalf("fastpath fallbacks = %d of %d ops (>5%%): producers sharing a queue handed off under a draining consumer", falls, total)
	}
	t.Logf("%d producers: %d ops, %d fallbacks (%.3f%%), %d full-ring waits", producers, total, falls,
		100*float64(falls)/float64(total), counterOf(end, "queue.ring_full_waits")-counterOf(base, "queue.ring_full_waits"))
}

// TestFullRingHandoffRecovery walks a false handoff through recovery. A
// consumer pops a little and then pauses, so the next full ring waits
// ringFullWait and hands off. Once the consumer drains again, a producer
// waits for the short backlog to empty (awaitReopen) instead of feeding
// the lists, the ring reopens, and its element goes through the ring.
// With no dequeue for ringFullWait, a waiting producer gives up instead.
func TestFullRingHandoffRecovery(t *testing.T) {
	r, _, err := Open(t.TempDir(), Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustCreate(t, r, QueueConfig{Name: "v", Volatile: true})
	ctx := context.Background()
	qs := r.queues["v"]
	enq := func() EID {
		t.Helper()
		eid, err := r.Enqueue(nil, "v", Element{}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return eid
	}
	var last EID
	deq := func() {
		t.Helper()
		e, err := r.Dequeue(ctx, nil, "v", "", DequeueOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if e.EID <= last {
			t.Fatalf("dequeued eid %d after %d: FIFO order lost", e.EID, last)
		}
		last = e.EID
	}
	for i := 0; i < 10; i++ {
		enq()
		deq()
	}
	for i := 0; i < ringCap+1; i++ { // the last one waits, then hands off
		enq()
	}
	if qs.fastMode.Load() || qs.handoff.Load() != handoffSealed {
		t.Fatalf("after the handoff: fastMode=%v handoff=%d, want sealed", qs.fastMode.Load(), qs.handoff.Load())
	}
	deq() // the consumer is back
	if got := qs.handoff.Load(); got != handoffDraining {
		t.Fatalf("handoff = %d after a locked dequeue, want draining", got)
	}

	done := make(chan EID)
	go func() {
		eid, err := r.Enqueue(nil, "v", Element{}, "", nil)
		if err != nil {
			t.Error(err)
		}
		done <- eid
	}()
	for deadline := time.Now().Add(time.Second); qs.ringWaiters.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("producer did not wait for the draining consumer")
		}
	}
	for n := 0; n < ringCap; n++ { // the backlog left by the handoff
		deq()
	}
	eid := <-done
	if !qs.fastMode.Load() || qs.ring.len() != 1 {
		t.Fatalf("after the drain: fastMode=%v ring len=%d, want the waiting producer's element in a reopened ring",
			qs.fastMode.Load(), qs.ring.len())
	}
	deq()
	if last != eid {
		t.Fatalf("last dequeued eid %d, want the waiting producer's %d", last, eid)
	}

	// A consumer that stops mid-drain: the waiting producer gives up.
	for i := 0; i < ringCap+1; i++ {
		enq()
	}
	deq()
	if got := qs.handoff.Load(); got != handoffDraining {
		t.Fatalf("handoff = %d after a locked dequeue, want draining", got)
	}
	start := time.Now()
	enq()
	if waited := time.Since(start); waited < ringFullWait {
		t.Fatalf("producer returned after %v, want a wait of at least %v for the stopped consumer", waited, ringFullWait)
	}
	if qs.fastMode.Load() || qs.handoff.Load() != handoffNone {
		t.Fatalf("after giving up: fastMode=%v handoff=%d, want the locked path with recovery over",
			qs.fastMode.Load(), qs.handoff.Load())
	}
	start = time.Now()
	enq()
	if waited := time.Since(start); waited >= ringFullWait {
		t.Fatalf("enqueue after giving up took %v: the recovery wait must not repeat", waited)
	}
}
