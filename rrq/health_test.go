package rrq

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestHealthFastpathSealChurn pins what the "fastpath" health probe
// keys on: a volatile backlog deeper than the ring — served mostly from
// the locked lists by design — stays ok, while ring seal churn (many
// seals, few ring-served operations between them) degrades the node.
func TestHealthFastpathSealChurn(t *testing.T) {
	// A long sampling interval leaves only the sample Start takes; the
	// test takes the rest itself so each window is exactly one phase.
	n, err := StartNode(NodeConfig{Dir: t.TempDir(), Name: "churn", MetricsHistory: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.CreateQueue(QueueConfig{Name: "v", Volatile: true}); err != nil {
		t.Fatal(err)
	}
	fastpath := func() HealthComponent {
		t.Helper()
		for _, c := range n.Health().Components {
			if c.Name == "fastpath" {
				return c
			}
		}
		t.Fatal("no fastpath component in the health document")
		return HealthComponent{}
	}

	// Fill-and-drain bursts four times the ring's size, with nothing
	// consuming during the fill: most operations land in the locked
	// lists, and each burst seals the ring once.
	reg := n.Metrics()
	ctx := context.Background()
	const bursts, burst = 4, 4096
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			if _, err := n.Repo().Enqueue(nil, "v", Element{Body: []byte("x")}, "", nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			if _, err := n.Repo().Dequeue(ctx, nil, "v", "", DequeueOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.History().Sample()
	rep, ok := n.History().Report(time.Minute)
	if !ok {
		t.Fatal("history report not ready")
	}
	hits, falls := rep.Counters["queue.fastpath_hits"], rep.Counters["queue.fastpath_fallbacks"]
	if seals := rep.Counters["queue.ring_seals"]; seals != bursts {
		t.Fatalf("queue.ring_seals = %d over %d bursts, want one per burst", seals, bursts)
	}
	if falls*2 <= hits+falls {
		t.Fatalf("backlog served %d of %d ops from the lists; want a majority, the case a fallback-fraction probe misreads", falls, hits+falls)
	}
	if c := fastpath(); c.Status != HealthOK {
		t.Fatalf("fill-and-drain backlog: fastpath %+v, want ok", c)
	}

	// A seal storm — a seal every other ring-served operation — injected
	// into the counters; the window still holds the backlog above.
	reg.Counter("queue.ring_seals").Add(1000)
	reg.Counter("queue.fastpath_hits").Add(2000)
	n.History().Sample()
	c := fastpath()
	if c.Status != HealthDegraded || !strings.Contains(c.Detail, "seal churn") {
		t.Fatalf("seal storm: fastpath %+v, want degraded with a seal-churn detail", c)
	}
	if h := n.Health(); h.Status != HealthDegraded {
		t.Fatalf("seal storm: node status %q, want %q", h.Status, HealthDegraded)
	}
}
