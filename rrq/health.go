package rrq

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

// Health statuses, ordered by severity. A node's overall status is the
// worst of its components'.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthFail     = "fail"
)

// HealthComponent is one probed subsystem.
type HealthComponent struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// Health is the node health document served by GET /healthz and
// qm.health.
type Health struct {
	Status     string            `json:"status"`
	Node       string            `json:"node"`
	At         time.Time         `json:"at"`
	Components []HealthComponent `json:"components"`
}

func worse(a, b string) string {
	rank := func(s string) int {
		switch s {
		case HealthFail:
			return 2
		case HealthDegraded:
			return 1
		default:
			return 0
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// Health evaluates the node's live health. Hard failures (the WAL
// poisoned or the repository closed) are "fail" — /healthz answers 503
// and an orchestrator should restart the process. Soft signals computed
// over the metrics-history window (admission shedding, circuit-breaker
// opens, ring seal churn) are "degraded": the node still
// serves, but an operator should look.
func (n *Node) Health() Health {
	h := Health{Status: HealthOK, Node: n.repo.Name(), At: time.Now()}
	add := func(name, status, detail string) {
		h.Components = append(h.Components, HealthComponent{Name: name, Status: status, Detail: detail})
		h.Status = worse(h.Status, status)
	}

	// WAL writable and group-commit writer alive: the durability plane.
	if err := n.repo.WALErr(); err != nil {
		add("wal", HealthFail, err.Error())
	} else {
		add("wal", HealthOK, "")
	}

	// Repository open (closed/crashed nodes fail readiness).
	if n.repo.Closed() {
		add("repository", HealthFail, "repository closed")
	} else {
		add("repository", HealthOK, "")
	}

	// Replication: a fenced or ship-poisoned sender is a hard failure
	// (the node must stop acking — an orchestrator should retire it); a
	// degraded-to-async sender or one lagging beyond the semi-sync budget
	// still serves, but the zero-loss guarantee is suspended.
	if n.sender != nil {
		st := n.sender.Status()
		switch {
		case st.Err != "":
			add("replication", HealthFail, st.Err)
		case st.Degraded:
			add("replication", HealthDegraded,
				fmt.Sprintf("degraded to async after ship failures (%d total)", st.ShipFailures))
		case n.replCfg != nil && n.replCfg.Mode != ReplAsync && overLagBudget(st, n.replCfg):
			add("replication", HealthDegraded,
				fmt.Sprintf("standby lag %d records / %d bytes over budget", st.LagRecords, st.LagBytes))
		default:
			add("replication", HealthOK, "")
		}
	}

	// Rate-based probes need a history window; without one they report
	// ok with a note rather than guessing from all-time counters.
	if n.history == nil {
		add("load", HealthOK, "metrics history disabled; rate probes unavailable")
		return h
	}
	rep, ok := n.history.Report(time.Minute)
	if !ok {
		add("load", HealthOK, "warming up")
		return h
	}

	// Admission shedding: requests bounced by MaxInflight in the window.
	if shed := rep.Counters["server.shed"]; shed > 0 {
		add("admission", HealthDegraded,
			fmt.Sprintf("%d requests shed (%.1f/s)", shed, rep.Rates["server.shed"]))
	} else {
		add("admission", HealthOK, "")
	}

	// Circuit breakers: client-side breaker opens in the window mean a
	// downstream this node dials is failing.
	if opens := rep.Counters["rpc.client.breaker_opens"]; opens > 0 {
		add("breakers", HealthDegraded, fmt.Sprintf("%d breaker opens", opens))
	} else {
		add("breakers", HealthOK, "")
	}

	// Ring fast path: churn is a volatile queue sealing its ring (a
	// fast→locked handoff that drains the ring into the locked lists)
	// so often that the ring barely serves anything in between. Ops
	// served from the lists are not the signal: a backlog deeper than
	// the ring is normal buffering and lands there by design (the
	// fill-and-drain backlog seals once per ringCap ring ops).
	seals := rep.Counters["queue.ring_seals"]
	hits := rep.Counters["queue.fastpath_hits"]
	if seals >= minChurnSeals && hits < seals*ringOpsPerSeal {
		add("fastpath", HealthDegraded,
			fmt.Sprintf("ring seal churn: %d seals against %d ring ops", seals, hits))
	} else {
		add("fastpath", HealthOK, "")
	}
	return h
}

// The fastpath probe degrades when a window holds at least minChurnSeals
// ring seals and fewer than ringOpsPerSeal ring-served operations per
// seal. A ring that fills and drains seals once per 1,024 ring pushes;
// a handoff storm (or a blocking consumer on an otherwise idle queue)
// seals every few operations.
const (
	minChurnSeals  = 16
	ringOpsPerSeal = 256
)

// overLagBudget reports whether the sender's lag exceeds the configured
// semi-sync budget (with the replica-package defaults applied).
func overLagBudget(st replica.Status, cfg *ReplicationConfig) bool {
	maxRecs, maxBytes := cfg.MaxLagRecords, cfg.MaxLagBytes
	if maxRecs == 0 {
		maxRecs = 256
	}
	if maxBytes == 0 {
		maxBytes = 1 << 20
	}
	return st.LagRecords > maxRecs || st.LagBytes > maxBytes
}

// History returns the node's metrics-history sampler, or nil when
// NodeConfig.MetricsHistory was zero.
func (n *Node) History() *obs.History { return n.history }
