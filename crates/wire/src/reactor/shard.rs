//! Shard-level state: which node lives where, the per-node protocol
//! slot the reactor drives, and the fault shim applied at the reactor's
//! read/write edges.
//!
//! A *shard* is a single-threaded event loop (see
//! [`Reactor`](super::reactor::Reactor)) owning the listeners, live
//! connections and timer queue of a subset of the deployment's nodes.
//! Placement is [`shard_of`]: a seed-free FNV-1a hash over a stable
//! encoding of the logical [`Address`], so the same roster always
//! shards the same way — the soak tests recompute the layout to kill a
//! whole shard deliberately.
//!
//! Everything protocol-visible goes through the shared
//! [`Node`] driver; the fault-shim verdicts are the DES engine's.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use sheriff_core::protocol::{Address, Machine, Node};
use sheriff_netsim::{ByzDecision, ByzStats, ByzantinePlan, FaultPlan, FaultStats};
use sheriff_telemetry::{Counter, Gauge, Registry};

use crate::deploy::Sink;
use crate::telemetry::WireTelemetry;

/// Per-node state inside a shard: the protocol node and the
/// crash/stop flags the reactor's edges consult.
pub(crate) struct NodeSlot {
    /// Logical address (also the key into the directory).
    pub(crate) me: Address,
    pub(crate) node: Node,
    /// Inside a scheduled crash window right now; flipping back to
    /// `false` is the restart edge.
    pub(crate) crashed: bool,
    /// Received its Shutdown frame; listener closed, timers discarded.
    pub(crate) stopped: bool,
}

impl NodeSlot {
    pub(crate) fn new(me: Address, node: Node) -> NodeSlot {
        NodeSlot {
            me,
            node,
            crashed: false,
            stopped: false,
        }
    }
}

/// Context shared by every shard of one deployment. Cheap to clone —
/// all heavy state is behind `Arc`s.
#[derive(Clone)]
pub(crate) struct ShardCtx {
    /// Logical address → listener socket address.
    pub(crate) dir: Arc<HashMap<Address, SocketAddr>>,
    pub(crate) wire: Arc<WireTelemetry>,
    /// Deployment start; virtual milliseconds are real elapsed time
    /// since this instant (the one place wall time enters the system).
    pub(crate) epoch: Instant,
    pub(crate) sink: Arc<Sink>,
    /// Installed only when the deployment was started with an *active*
    /// fault plan, so the fault-free path is byte-identical to before.
    pub(crate) shim: Option<Arc<FaultShim>>,
    /// Installed only for an *active* Byzantine plan — consulted at the
    /// reactor's write edge exactly where the DES engine consults its
    /// twin, so both backends corrupt the same traffic.
    pub(crate) byz: Option<Arc<ByzShim>>,
    /// Seeds each shard's RNG; only the Coordinator draws from it.
    pub(crate) seed: u64,
    /// Period (and first-fire phase) of the Coordinator's §10.3
    /// recovery sweep.
    pub(crate) sweep_every_ms: u64,
    /// Measurement liveness beacon period; also when the first beacon
    /// fires (a fixed phase keeps deployment frame counts deterministic).
    pub(crate) beacon_every_ms: u64,
    /// `wire.reactor_wakeups`: iterations that found work to do.
    pub(crate) wakeups: Arc<Counter>,
    /// `wire.shard_queue_depth`: high-water mark of pending work
    /// (inbound connections + queued frames + delayed sends) across all
    /// shards.
    pub(crate) queue_depth: Arc<Gauge>,
}

impl ShardCtx {
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Applies a [`FaultPlan`] — the very schedule the DES engine consumes —
/// at the reactor's socket edges. Nodes are numbered exactly like the
/// DES deployment (`coordinator, aggregator, db?, servers…, ipcs…,
/// ppcs…`), and the plan keys its decisions on per-link occurrence
/// counters rather than wall-clock, so one schedule means the same
/// drops, duplicates and crash windows on either backend. The *write*
/// edge asks [`FaultShim::outbound`] before a frame is queued; the
/// *read* edge drops completed frames for crashed nodes and defers
/// their timers.
pub(crate) struct FaultShim {
    plan: Mutex<FaultPlan>,
    index: HashMap<Address, usize>,
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    delayed: Arc<Counter>,
    partition_drops: Arc<Counter>,
    pub(crate) crash_dropped: Arc<Counter>,
    pub(crate) node_restarts: Arc<Counter>,
    pub(crate) timers_deferred: Arc<Counter>,
}

impl FaultShim {
    pub(crate) fn new(
        plan: FaultPlan,
        index: HashMap<Address, usize>,
        registry: &Arc<Registry>,
    ) -> FaultShim {
        FaultShim {
            plan: Mutex::new(plan),
            index,
            dropped: registry.counter("faults.dropped"),
            duplicated: registry.counter("faults.duplicated"),
            delayed: registry.counter("faults.delayed"),
            partition_drops: registry.counter("faults.partition_drops"),
            crash_dropped: registry.counter("faults.crash_dropped"),
            node_restarts: registry.counter("faults.node_restarts"),
            timers_deferred: registry.counter("faults.timers_deferred"),
        }
    }

    /// Running totals of the schedule's decisions.
    pub(crate) fn stats(&self) -> FaultStats {
        self.plan.lock().stats
    }

    /// Send-time verdict for one envelope, mirroring the DES engine
    /// (which consults the plan when the send output is dispatched):
    /// `None` eats it, otherwise `(copies, extra_delay_ms)`.
    pub(crate) fn outbound(&self, now_ms: u64, from: Address, to: Address) -> Option<(usize, u64)> {
        let (Some(&f), Some(&t)) = (self.index.get(&from), self.index.get(&to)) else {
            return Some((1, 0));
        };
        let mut plan = self.plan.lock();
        let before = plan.stats;
        let d = plan.decide(now_ms, f, t);
        let after = plan.stats;
        self.dropped.add(after.dropped - before.dropped);
        self.duplicated.add(after.duplicated - before.duplicated);
        self.delayed.add(after.delayed - before.delayed);
        self.partition_drops
            .add(after.partition_drops - before.partition_drops);
        if d.drop {
            None
        } else {
            Some((1 + d.duplicate as usize, d.extra_delay_ms))
        }
    }

    /// The restart millisecond when `node` sits inside a crash window.
    pub(crate) fn crashed_until(&self, node: Address, now_ms: u64) -> Option<u64> {
        let &idx = self.index.get(&node)?;
        self.plan.lock().restart_at(idx, now_ms)
    }
}

/// Applies a [`ByzantinePlan`] — the very schedule the DES engine
/// consumes — at the reactor's write edge. Nodes are numbered exactly
/// like the DES deployment, and the plan keys its decisions on
/// per-directed-link occurrence counters rather than wall-clock, so one
/// schedule means the same equivocations, fabrications, replays and
/// floods on either backend. Unlike the fault shim this one sits
/// *before* the fault verdict: misbehavior is something the sender does,
/// not something the network does, and every emitted copy (primary and
/// junk alike) still faces the fault schedule individually — the same
/// order the DES dispatch path uses.
pub(crate) struct ByzShim {
    plan: Mutex<ByzantinePlan>,
    index: HashMap<Address, usize>,
}

impl ByzShim {
    pub(crate) fn new(plan: ByzantinePlan, index: HashMap<Address, usize>) -> ByzShim {
        ByzShim {
            plan: Mutex::new(plan),
            index,
        }
    }

    /// Running totals of the schedule's decisions.
    pub(crate) fn stats(&self) -> ByzStats {
        self.plan.lock().stats
    }

    /// Send-time decision for one envelope. Links whose endpoints are
    /// outside the roster (externally injected frames) are honest by
    /// definition — the DES engine never sees those sends either.
    pub(crate) fn decide(&self, from: Address, to: Address, price_bearing: bool) -> ByzDecision {
        let (Some(&f), Some(&t)) = (self.index.get(&from), self.index.get(&to)) else {
            return ByzDecision::HONEST;
        };
        self.plan.lock().decide(f, t, price_bearing)
    }
}

/// Moves a peer add-on's freshly observable outcomes into the shared
/// sink, waking any `await_check` caller. A no-op for other roles.
pub(crate) fn drain_peer(node: &mut Node, sink: &Sink) {
    let Machine::Peer { proto, .. } = node.machine_mut() else {
        return;
    };
    if proto.completed.is_empty() && proto.rejected.is_empty() && proto.server_removals.is_empty() {
        return;
    }
    let Ok(mut st) = sink.state.lock() else {
        return;
    };
    st.completed.append(&mut proto.completed);
    st.rejected.append(&mut proto.rejected);
    st.removals.append(&mut proto.server_removals);
    sink.cv.notify_all();
}

/// Deterministic node→shard placement: FNV-1a over a stable
/// `(discriminant, id)` encoding of the address, reduced by shard
/// count. Seed-free on purpose — the layout is a pure function of the
/// roster, so tests (and operators) can recompute which nodes share a
/// fate when one reactor thread is killed.
pub(crate) fn shard_of(addr: Address, n_shards: usize) -> usize {
    let (tag, id) = match addr {
        Address::Coordinator => (0u8, 0u64),
        Address::Aggregator => (1, 0),
        Address::Database => (2, 0),
        Address::Server { index } => (3, index as u64),
        Address::Ipc { index } => (4, index as u64),
        Address::Peer { id } => (5, id),
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in std::iter::once(tag).chain(id.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_shards.max(1) as u64) as usize
}

/// Default shard count for a roster: one shard per eight nodes, between
/// one and eight. Small test deployments stay on a couple of threads;
/// thousand-peer soaks spread across eight.
pub(crate) fn default_shard_count(n_nodes: usize) -> usize {
    n_nodes.div_ceil(8).clamp(1, 8)
}
