//! The TCP reactor workloads: `tcp_paced` (open loop) and
//! `tcp_saturate` (closed loop). Load comes from at most two load
//! threads; the reactor's own shard threads belong to the program and
//! use `DeployOptions::default()`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sheriff_core::db::DbCostModel;
use sheriff_core::system::SheriffConfig;
use sheriff_wire::MiniDeployment;

use crate::gen::{self, Request};
use crate::host;
use crate::outcome::{verify, Fig, Outcome};
use crate::stats::{per, percentile, Ratio};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Checks per chunk of the chunked tail: between 500 and 1000, so
/// every chunk's tail is its p98 whatever the run's length.
const TAIL_CHUNK: usize = 600;
/// Untimed checks run after each set-up, so lazy state is warm.
const WARMUP: usize = 8;

/// A check the load thread has issued: request index, the `begin_check`
/// result, when its latency clock started, and its open span.
type InFlight = (usize, Result<u64, String>, Instant, Option<usize>);

/// Shape of one TCP workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// PPC roster size.
    pub peers: u64,
    /// Run the paper's full 30-IPC roster (otherwise none).
    pub ipcs: bool,
    /// How load is offered.
    pub load: Load,
}

/// Offered load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Open loop: Poisson arrivals at this rate per second.
    Paced(f64),
    /// Closed loop: this many checks outstanding from one thread.
    Saturate(usize),
}

/// `tcp_paced`: 30 IPCs + 64 PPCs, open loop at 40 checks/s.
pub const PACED: Shape = Shape {
    peers: 64,
    ipcs: true,
    load: Load::Paced(40.0),
};

/// `tcp_saturate`: 1000 PPCs, no IPCs, 16 checks outstanding.
pub const SATURATE: Shape = Shape {
    peers: 1000,
    ipcs: false,
    load: Load::Saturate(16),
};

/// v2 with two Measurement servers and every modeled wait zeroed: on
/// this backend the reactor turns modeled milliseconds into real
/// sleeps that no system change can move, so with them at zero every
/// reported millisecond is time the system adds.
pub fn config(seed: u64, ipcs: bool) -> SheriffConfig {
    let mut cfg = SheriffConfig::v2(seed, 2);
    if !ipcs {
        cfg.ipc_locations.clear();
    }
    cfg.proc_per_reply_ms = 0.0;
    cfg.context_switch_alpha = 0.0;
    cfg.db_cost = DbCostModel {
        write_ms: 0.0,
        connection_setup_ms: 0.0,
        wal_append_ms_per_row: 0.0,
        barrier_ms: 0.0,
        compaction_ms_per_check: 0.0,
        ..DbCostModel::dedicated()
    };
    // Heartbeats off: a beacon period and expiry far beyond any run.
    cfg.heartbeat_every_ms = 24 * 3_600_000;
    cfg.heartbeat_timeout_ms = 48 * 3_600_000;
    cfg
}

/// Observations a correct check carries: the initiator's own, one per
/// PPC asked, one per IPC.
fn vantages(cfg: &SheriffConfig) -> usize {
    1 + cfg.ppc_per_request + cfg.ipc_locations.len()
}

fn counters(d: &MiniDeployment) -> BTreeMap<String, u64> {
    d.telemetry().snapshot().counters
}

fn delta(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, key: &str, base: u64) -> Ratio {
    per(
        a.get(key).copied().unwrap_or(0),
        b.get(key).copied().unwrap_or(0),
        base,
    )
}

/// Replies the Measurement servers' defense refused over a window:
/// implausible prices, and anything from a vantage in quarantine.
pub fn defense_refusals(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, base: u64) -> Ratio {
    let validation = delta(a, b, "defense.validation_rejects", base);
    let quarantine = delta(a, b, "defense.quarantine_drops", base);
    Ratio {
        total: validation.total + quarantine.total,
        base,
    }
}

/// Starts a deployment and warms it up; returns it with its set-up time.
fn start(shape: Shape, seed: u64) -> (MiniDeployment, f64) {
    let t = Instant::now();
    let world = gen::world();
    let domains = gen::check_domains(&world);
    let cfg = config(seed, shape.ipcs);
    let d = MiniDeployment::start_with(world, cfg, &gen::roster(shape.peers))
        .expect("deployment starts");
    for req in gen::requests(seed ^ 0xa11, WARMUP, shape.peers, &domains) {
        d.run_check(req.peer, &req.domain, req.product)
            .expect("warm-up check completes");
    }
    (d, t.elapsed().as_secs_f64())
}

/// Runs one measured pass of a TCP workload.
pub fn run(shape: Shape, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        chunk: TAIL_CHUNK,
        ..Outcome::default()
    };
    let mut deployment: Option<MiniDeployment> = None;
    for _ in 0..SETUPS {
        // The previous deployment shuts down outside the timing.
        if let Some(old) = deployment.take() {
            old.shutdown();
        }
        let (d, s) = start(shape, seed);
        out.setup_s.push(s);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let world = gen::world();
    let domains = gen::check_domains(&world);
    let want = vantages(&config(seed, shape.ipcs));

    let before = counters(&d);
    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    let late_ms = match shape.load {
        Load::Paced(rate) => paced(
            &d, shape, seed, rate, seconds, &domains, want, tracer, &mut out,
        ),
        Load::Saturate(width) => saturate(
            &d, shape, seed, width, seconds, &domains, want, tracer, &mut out,
        ),
    };
    out.window_s = t0.elapsed().as_secs_f64();
    let cpu1 = host::cpu_ms();
    let after = counters(&d);
    out.cpu_ms = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);

    let ok = out.ok;
    for (name, key) in [
        ("wire.frames_per_check", "wire.frames_out"),
        ("wire.bytes_per_check", "wire.bytes_out"),
        ("wire.wakeups_per_check", "wire.reactor_wakeups"),
        ("protocol.acks_per_check", "protocol.acks"),
        ("protocol.retransmits_per_check", "protocol.retransmits"),
    ] {
        out.per_check(name, delta(&before, &after, key, ok));
    }
    out.per_check("measurement.pages_per_check", per(0, out.pages, ok));
    let requests = delta(&before, &after, "coordinator.requests_total", 1).total as u64;
    out.layer.insert(
        "coordinator.rejected_ratio",
        Fig::ratio(
            delta(&before, &after, "coordinator.requests_rejected", requests),
            "requests",
        ),
    );
    let mut late = late_ms;
    late.sort_by(f64::total_cmp);
    if !late.is_empty() {
        out.layer.insert(
            "loadgen.late_p99_ms",
            Fig::new(
                percentile(&late, 99.0),
                format!("p99 of {} sends", late.len()),
            ),
        );
    }
    // Every vantage must be accounted for: observations a check lacks
    // are replies the Measurement server's defense refused, and nothing
    // else.
    let rejects = defense_refusals(&before, &after, ok);
    out.per_check("defense.rejected_replies_per_check", rejects);
    if rejects.total as u64 != out.shortfall {
        out.incorrect(format!(
            "{} observations missing but {} replies refused",
            out.shortfall, rejects.total
        ));
    }
    out.notes.push(("shards", d.shard_count().to_string()));
    out.notes.push(("vantages_per_check", want.to_string()));
    d.shutdown();
    out
}

/// Open loop. A sender thread issues each check at its Poisson due
/// time; the main thread awaits checks in issue order. Latency runs
/// from the due time, so a stall also delays the checks queued behind
/// it. Returns how late each send was, ms.
#[allow(clippy::too_many_arguments)]
fn paced(
    d: &MiniDeployment,
    shape: Shape,
    seed: u64,
    rate: f64,
    seconds: f64,
    domains: &[(String, usize)],
    want: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let schedule: Vec<f64> =
        gen::poisson_schedule(seed, rate, (rate * seconds * 2.0) as usize + 16)
            .into_iter()
            .take_while(|&t| t < seconds)
            .collect();
    let reqs = gen::requests(seed, schedule.len(), shape.peers, domains);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut late = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let reqs = &reqs;
        let schedule = &schedule;
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(schedule.len());
            let t0 = Instant::now() + Duration::from_millis(5);
            for (i, (&at, req)) in schedule.iter().zip(reqs).enumerate() {
                let due = t0 + Duration::from_secs_f64(at);
                late.push(wait_until(due));
                let span = tracer.open("check", i as u64);
                let tag = tracer.span("wire.begin_check", i as u64, span, || {
                    d.begin_check(req.peer, &req.domain, req.product)
                });
                if tx.send((i, tag, due, span)).is_err() {
                    break;
                }
            }
            late
        });
        for (i, tag, due, span) in rx {
            let req = &reqs[i];
            out.attempted += 1;
            let res = tag.and_then(|tag| {
                tracer.span("wire.await_check", i as u64, span, || d.await_check(tag))
            });
            let done = Instant::now();
            tracer.close(span);
            finish(out, req, res, want, done.saturating_duration_since(due));
        }
        late = sender.join().expect("sender thread");
    });
    out.requests = reqs;
    late
}

/// Sleeps until `due`; returns how late the thread woke, ms.
pub fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Closed loop: `width` checks outstanding from this one thread; each
/// completion (awaited oldest first) issues the next. Latency runs from
/// `begin_check`. Returns the gap between a completion and the next
/// issue, ms — the closed loop's own lateness.
#[allow(clippy::too_many_arguments)]
fn saturate(
    d: &MiniDeployment,
    shape: Shape,
    seed: u64,
    width: usize,
    seconds: f64,
    domains: &[(String, usize)],
    want: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    // Generously more requests than the window can use; drawn up front
    // so the load thread does no generation while it measures.
    let reqs = gen::requests(
        seed,
        (seconds * 2000.0) as usize + width,
        shape.peers,
        domains,
    );
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut next = 0usize;
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    let mut gaps = Vec::new();
    let issue = |i: usize| {
        let req = &reqs[i];
        let span = tracer.open("check", i as u64);
        let begun = Instant::now();
        let tag = tracer.span("wire.begin_check", i as u64, span, || {
            d.begin_check(req.peer, &req.domain, req.product)
        });
        (i, tag, begun, span)
    };
    while next < width {
        outstanding.push_back(issue(next));
        next += 1;
    }
    while let Some((i, tag, begun, span)) = outstanding.pop_front() {
        out.attempted += 1;
        let res = tag
            .and_then(|tag| tracer.span("wire.await_check", i as u64, span, || d.await_check(tag)));
        let done = Instant::now();
        tracer.close(span);
        finish(
            out,
            &reqs[i],
            res,
            want,
            done.saturating_duration_since(begun),
        );
        if done < end && next < reqs.len() {
            outstanding.push_back(issue(next));
            gaps.push(outstanding.back().map_or(0.0, |o| {
                o.2.saturating_duration_since(done).as_secs_f64() * 1e3
            }));
            next += 1;
        }
    }
    out.requests = reqs[..next].to_vec();
    gaps
}

fn finish(
    out: &mut Outcome,
    req: &Request,
    res: Result<sheriff_core::records::PriceCheck, String>,
    want: usize,
    latency: Duration,
) {
    match res {
        Ok(check) => {
            if out.judge(verify(&check, req, want)) {
                out.ok += 1;
                out.pages += check.observations.len() as u64;
                out.op_ms.push(latency.as_secs_f64() * 1e3);
            }
        }
        Err(e) => out.fail(e),
    }
}
