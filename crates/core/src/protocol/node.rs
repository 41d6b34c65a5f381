//! The one driver every backend runs a role machine through.
//!
//! A [`Node`] is one role machine plus the reliable [`Channel`] in front
//! of it. Its three entry points — [`Node::on_frame`],
//! [`Node::on_timer`] and [`Node::on_restart`] — are the only place a
//! delivery, a timer token or a restart edge is routed to a machine's
//! `on_message` / `on_timer` / `on_send_abandoned` / `on_restart`. The
//! discrete-event adapter in `core::system`, the TCP reactor in
//! `sheriff-wire` and the `sheriff-model` explorer each reduce to a clock
//! plus a transport around it, so the three cannot drift apart.
//!
//! The machines report observable outcomes as [`MeasEvent`]s and
//! [`DbEvent`]s. The node keeps them in reusable buffers for the
//! duration of one entry point (the model checker reads the Database's
//! through [`Node::db_events`]) and, when [`Node::with_telemetry`] was
//! called, folds them into the registry through the single applier
//! below — so both deployable backends publish the same `measurement.*`
//! and `db.*` metrics for the same events. The `protocol.*` counters
//! live on the channel.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use sheriff_market::World;
use sheriff_telemetry::{Counter, FieldValue, Gauge, Histogram, Registry};

use crate::protocol::{
    Address, AggregatorProto, Channel, CoordinatorProto, DbEvent, DbProto, DefenseBook, IpcProto,
    MeasEvent, MeasurementProto, Output, PeerProto, ProtoMsg, TimerKind,
};

/// The six role machines.
pub enum Machine {
    /// The Coordinator.
    Coordinator(Box<CoordinatorProto>),
    /// The Aggregator.
    Aggregator(AggregatorProto),
    /// A Measurement server.
    Measurement(Box<MeasurementProto>),
    /// The dedicated Database server.
    Database(Box<DbProto>),
    /// An Infrastructure Proxy Client, fetching from the shared world.
    Ipc {
        /// The machine.
        proto: Box<IpcProto>,
        /// The synthetic web its fetches read.
        world: Arc<Mutex<World>>,
    },
    /// A PPC / browser add-on, fetching from the shared world.
    Peer {
        /// The machine.
        proto: Box<PeerProto>,
        /// The synthetic web its fetches read.
        world: Arc<Mutex<World>>,
    },
}

/// One role machine behind its reliable channel. See the module docs.
pub struct Node {
    machine: Machine,
    chan: Channel,
    meas_events: Vec<MeasEvent>,
    db_events: Vec<DbEvent>,
    applier: Option<Box<Applier>>,
}

impl Node {
    /// Wraps `machine` behind `chan`, without telemetry.
    pub fn new(machine: Machine, chan: Channel) -> Node {
        Node {
            machine,
            chan,
            meas_events: Vec::new(),
            db_events: Vec::new(),
            applier: None,
        }
    }

    /// Publishes the machine's `measurement.*` / `db.*` metrics into
    /// `registry` (a no-op for the roles that report no events).
    pub fn with_telemetry(mut self, registry: &Arc<Registry>) -> Node {
        self.applier = match &self.machine {
            Machine::Measurement(m) => Some(Box::new(Applier::Measurement(
                MeasurementTelemetry::new(registry, m.index()),
            ))),
            Machine::Database(_) => Some(Box::new(Applier::Database(DbTelemetry::new(registry)))),
            _ => None,
        };
        self
    }

    /// The role machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The role machine, mutably (set-up and harvesting, never routing).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The reliable channel.
    pub fn channel(&self) -> &Channel {
        &self.chan
    }

    /// The reliable channel, mutably.
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.chan
    }

    /// The machine's defense book, for the roles that keep one.
    pub fn defense(&self) -> Option<&DefenseBook> {
        match &self.machine {
            Machine::Coordinator(c) => Some(&c.defense),
            Machine::Measurement(m) => Some(&m.defense),
            _ => None,
        }
    }

    /// The Database events the last entry point produced.
    pub fn db_events(&self) -> &[DbEvent] {
        &self.db_events
    }

    /// A frame arrived from `from`: the channel acks, dedups and unwraps
    /// it, the machine handles the payload, and the channel hardens the
    /// outputs. `rng` is the driver's; only the Coordinator draws.
    pub fn on_frame(
        &mut self,
        now_ms: u64,
        from: Address,
        msg: ProtoMsg,
        rng: &mut StdRng,
        out: &mut Vec<Output>,
    ) {
        self.meas_events.clear();
        self.db_events.clear();
        if let Some(msg) = self.chan.accept(from, msg, out) {
            match &mut self.machine {
                Machine::Coordinator(c) => c.on_message(now_ms, from, msg, rng, out),
                Machine::Aggregator(a) => a.on_message(from, msg, out),
                Machine::Measurement(m) => {
                    m.on_message(now_ms, from, msg, out, &mut self.meas_events);
                }
                Machine::Database(d) => d.on_message(now_ms, from, msg, out, &mut self.db_events),
                Machine::Ipc { proto, world } => {
                    proto.on_message(now_ms, from, msg, &mut world.lock(), out);
                }
                Machine::Peer { proto, world } => {
                    proto.on_message(now_ms, from, msg, &mut world.lock(), out);
                }
            }
        }
        self.publish(now_ms);
        self.chan.harden(out);
    }

    /// A timer armed by this node fired. Unknown tokens are counted
    /// (`protocol.unknown_timers`) and dropped; a `Retransmit` goes to
    /// the channel, and a give-up is handed to the machine's
    /// `on_send_abandoned` so it can release what the send pinned.
    pub fn on_timer(&mut self, now_ms: u64, token: u64, rng: &mut StdRng, out: &mut Vec<Output>) {
        self.meas_events.clear();
        self.db_events.clear();
        let Some(kind) = TimerKind::from_token(token) else {
            self.chan.note_unknown_timer();
            return;
        };
        match (kind, &mut self.machine) {
            (TimerKind::Retransmit(seq), machine) => {
                if let Some((_, abandoned)) = self.chan.on_retransmit(seq, out) {
                    match machine {
                        Machine::Coordinator(c) => c.on_send_abandoned(&abandoned),
                        Machine::Measurement(m) => {
                            m.on_send_abandoned(now_ms, &abandoned, out, &mut self.meas_events);
                        }
                        Machine::Peer { proto, .. } => proto.on_send_abandoned(&abandoned),
                        // No per-send bookkeeping; the channel already
                        // counted the give-up.
                        _ => {}
                    }
                }
            }
            (kind, Machine::Coordinator(c)) => c.on_timer(now_ms, kind, rng, out),
            (kind, Machine::Measurement(m)) => {
                m.on_timer(now_ms, kind, out, &mut self.meas_events);
            }
            (kind, Machine::Database(d)) => d.on_timer(kind, out, &mut self.db_events),
            _ => {}
        }
        self.publish(now_ms);
        self.chan.harden(out);
    }

    /// The node came back from a crash (§10.3). The Database loses its
    /// volatile state — the channel's windows and in-flight sends, the
    /// memory table, the un-barriered WAL tail — and recovers the
    /// durable prefix. A Measurement server keeps its state and beacons
    /// at once, so the Coordinator puts it back in rotation without
    /// waiting a full period. Every other role restarts as it was.
    pub fn on_restart(&mut self, now_ms: u64, out: &mut Vec<Output>) {
        self.meas_events.clear();
        self.db_events.clear();
        match &mut self.machine {
            Machine::Database(d) => {
                self.chan.on_restart();
                d.on_restart(&mut self.db_events);
            }
            Machine::Measurement(m) => m.on_restart(now_ms, out),
            _ => {}
        }
        self.publish(now_ms);
        self.chan.harden(out);
    }

    fn publish(&self, now_ms: u64) {
        match self.applier.as_deref() {
            Some(Applier::Measurement(t)) => t.apply(now_ms, &self.meas_events),
            Some(Applier::Database(t)) => t.apply(&self.db_events),
            None => {}
        }
    }
}

// ---------------------------------------------------------------------
// The telemetry applier
// ---------------------------------------------------------------------

/// Folds one step's events into the registry, for the two roles that
/// report any.
enum Applier {
    Measurement(MeasurementTelemetry),
    Database(DbTelemetry),
}

/// Fan-out latency buckets (ms): proxy fetches are heavy-tailed (§5),
/// so the grid spans two decades up to the job-deadline scale.
const FANOUT_LATENCY_EDGES: &[f64] = &[
    100.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0,
];

/// Modeled CPU cost buckets (ms) for extraction/assembly and DB stores.
const CPU_COST_EDGES: &[f64] = &[
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 5_000.0,
];

/// Cached handles for the Measurement-server hot path. Histograms are
/// shared across servers (same metric name); the active-jobs gauge is
/// per server.
struct MeasurementTelemetry {
    index: usize,
    registry: Arc<Registry>,
    fanout_latency: Arc<Histogram>,
    assembly_cpu: Arc<Histogram>,
    replies: Arc<Counter>,
    late_replies: Arc<Counter>,
    bytes_stored: Arc<Counter>,
    bytes_full: Arc<Counter>,
    jobs_finished: Arc<Counter>,
    active_jobs: Arc<Gauge>,
    /// v1 integrated-RDBMS cost, published under the same names as the
    /// dedicated Database server so v1/v2 run reports line up.
    db_query_cost: Arc<Histogram>,
    db_queries: Arc<Counter>,
    /// Duplicate `FetchReply` deliveries suppressed by the per-job
    /// vantage dedup (same counter as the reliable channel's dedup — both
    /// mean "a transport duplicate was absorbed").
    dedup_hits: Arc<Counter>,
    /// Half-open jobs reaped at the deadline (partner message lost).
    orphans_reaped: Arc<Counter>,
}

impl MeasurementTelemetry {
    fn new(registry: &Arc<Registry>, index: usize) -> Self {
        MeasurementTelemetry {
            index,
            db_query_cost: registry.histogram("db.query_cost_ms", CPU_COST_EDGES),
            db_queries: registry.counter("db.queries_total"),
            dedup_hits: registry.counter("protocol.dedup_hits"),
            orphans_reaped: registry.counter("measurement.orphans_reaped"),
            fanout_latency: registry
                .histogram("measurement.fanout_latency_ms", FANOUT_LATENCY_EDGES),
            assembly_cpu: registry.histogram("measurement.assembly_cpu_ms", CPU_COST_EDGES),
            replies: registry.counter("measurement.replies_total"),
            late_replies: registry.counter("measurement.late_replies"),
            bytes_stored: registry.counter("measurement.diff_bytes_stored"),
            bytes_full: registry.counter("measurement.diff_bytes_full"),
            jobs_finished: registry.counter("measurement.jobs_finished"),
            active_jobs: registry.gauge(&format!("measurement.{index:03}.active_jobs")),
            registry: Arc::clone(registry),
        }
    }

    /// Folds the machine's observable outcomes into the registry.
    fn apply(&self, now_ms: u64, events: &[MeasEvent]) {
        for e in events {
            match *e {
                MeasEvent::ReplyAccepted { since_fanout_ms } => {
                    self.replies.inc();
                    self.fanout_latency.observe(since_fanout_ms as f64);
                }
                MeasEvent::ReplyLate => self.late_replies.inc(),
                MeasEvent::ReplyDuplicate => self.dedup_hits.inc(),
                MeasEvent::OrphanReaped { job } => {
                    self.orphans_reaped.inc();
                    self.registry.event(
                        now_ms,
                        "measurement.orphan_reaped",
                        vec![
                            ("job", FieldValue::U64(job.0)),
                            ("server", FieldValue::U64(self.index as u64)),
                        ],
                    );
                }
                MeasEvent::AssemblyScheduled {
                    proc_ms,
                    db_ms,
                    active_jobs,
                } => {
                    if let Some(db_ms) = db_ms {
                        self.db_queries.inc();
                        self.db_query_cost.observe(db_ms);
                    }
                    self.assembly_cpu.observe(proc_ms);
                    self.active_jobs.set(active_jobs as i64);
                }
                MeasEvent::JobFinished {
                    job,
                    stored,
                    full,
                    received,
                    fanout_at_ms,
                    active_jobs,
                } => {
                    self.bytes_stored.add(stored as u64);
                    self.bytes_full.add(full as u64);
                    self.jobs_finished.inc();
                    self.active_jobs.set(active_jobs as i64);
                    self.registry.span(
                        fanout_at_ms,
                        now_ms,
                        "measurement.job",
                        vec![
                            ("job", FieldValue::U64(job.0)),
                            ("server", FieldValue::U64(self.index as u64)),
                            ("replies", FieldValue::U64(received as u64)),
                        ],
                    );
                }
            }
        }
    }
}

/// Cached handles for the Database-server hot path.
struct DbTelemetry {
    query_cost: Arc<Histogram>,
    queries: Arc<Counter>,
    active: Arc<Gauge>,
    max_active: Arc<Gauge>,
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    snapshots: Arc<Counter>,
    recovered: Arc<Counter>,
    dup_stores: Arc<Counter>,
    ack_loss_window: Arc<Counter>,
}

impl DbTelemetry {
    fn new(registry: &Arc<Registry>) -> Self {
        DbTelemetry {
            query_cost: registry.histogram("db.query_cost_ms", CPU_COST_EDGES),
            queries: registry.counter("db.queries_total"),
            active: registry.gauge("db.active_queries"),
            max_active: registry.gauge("db.active_queries_max"),
            wal_appends: registry.counter("db.wal_appends"),
            wal_bytes: registry.counter("db.wal_bytes"),
            snapshots: registry.counter("db.snapshots"),
            recovered: registry.counter("db.recovered_records"),
            dup_stores: registry.counter("db.duplicate_stores"),
            ack_loss_window: registry.counter("db.ack_loss_window"),
        }
    }

    fn apply(&self, events: &[DbEvent]) {
        for e in events {
            match *e {
                DbEvent::QueryScheduled { cost_ms, active } => {
                    self.queries.inc();
                    self.query_cost.observe(cost_ms as f64);
                    self.active.set(i64::from(active));
                    if i64::from(active) > self.max_active.get() {
                        self.max_active.set(i64::from(active));
                    }
                }
                DbEvent::QueryDone { active } => self.active.set(i64::from(active)),
                DbEvent::WalAppended { bytes } => {
                    self.wal_appends.inc();
                    self.wal_bytes.add(bytes);
                }
                DbEvent::SnapshotInstalled { .. } => self.snapshots.inc(),
                DbEvent::Recovered { records, .. } => self.recovered.add(records),
                DbEvent::DuplicateStoreAbsorbed { .. } => self.dup_stores.inc(),
                DbEvent::AckLossWindow { .. } => self.ack_loss_window.inc(),
            }
        }
    }
}
