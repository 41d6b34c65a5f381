//! `des_batch`: the discrete-event backend with the paper's timings.
//! A batch submits ~1000 checks at a fixed virtual spacing and runs the
//! simulation to completion. No sockets, no fsync (`MemStorage`): the
//! work is `netsim` events, `core::system` dispatch and the page
//! pipeline.

use std::collections::BTreeMap;
use std::time::Instant;

use sheriff_core::system::{CompletedCheck, PriceSheriff, SheriffConfig};
use sheriff_netsim::SimTime;

use crate::gen::{self, Request};
use crate::host;
use crate::outcome::{Fig, Outcome};
use crate::stats::{per, Ratio};
use crate::trace::Tracer;

/// Checks per batch.
pub const CHECKS: usize = 1000;
/// PPC roster size.
pub const PEERS: u64 = 256;
/// Virtual time between submissions, ms.
const SPACING_MS: u64 = 2_000;
/// Virtual time after the last submission for stragglers to finish:
/// past the job deadline plus the store.
const DRAIN_MS: u64 = 10 * 60_000;
/// Fewest batches per run: set-up time is their median, and the digest
/// check needs a second batch to compare with.
const MIN_BATCHES: usize = 2;

/// FNV-1a over a byte string, continued from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of every observation of every check, in a canonical order.
fn digest(checks: &[CompletedCheck]) -> u64 {
    let mut lines: Vec<String> = checks
        .iter()
        .flat_map(|c| {
            c.check.observations.iter().map(move |o| {
                format!(
                    "{}|{}|{:?}|{}|{}|{}|{}|{}",
                    c.check.job_id,
                    c.check.url,
                    o.vantage,
                    o.vantage_id,
                    o.raw_text,
                    o.currency,
                    o.amount.to_bits(),
                    o.failed
                )
            })
        })
        .collect();
    lines.sort();
    lines
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, l| fnv(h, l.as_bytes()))
}

/// One finished batch.
pub struct Batch {
    /// Set-up wall seconds: world build and `PriceSheriff::new`.
    pub setup_s: f64,
    /// Simulation wall seconds: submissions, stepping and drain.
    pub sim_s: f64,
    /// Completed checks.
    pub done: Vec<CompletedCheck>,
    /// Coordinator rejections as `(peer, tag, reason)`.
    pub refused: Vec<(u64, u64, String)>,
    /// The registry's counters at the end.
    pub counters: BTreeMap<String, u64>,
}

/// Runs one batch: a fresh system, `reqs` submitted [`SPACING_MS`]
/// apart, stepped one interval at a time (each interval's wall ms is
/// pushed onto `interval_ms`), then drained.
pub fn batch(
    seed: u64,
    reqs: &[Request],
    tracer: &Tracer,
    id: u64,
    interval_ms: &mut Vec<f64>,
) -> Batch {
    let roster = gen::roster(PEERS);
    let t = Instant::now();
    let mut sheriff = tracer.span("system.setup", id, None, || {
        PriceSheriff::new(SheriffConfig::v2(seed, 2), gen::world(), &roster)
    });
    let setup_s = t.elapsed().as_secs_f64();

    let run_span = tracer.open("system.batch", id);
    let t = Instant::now();
    for (i, r) in reqs.iter().enumerate() {
        let at = SimTime::from_millis(i as u64 * SPACING_MS);
        sheriff.submit_check(at, r.peer, &r.domain, r.product);
    }
    // One sample per submission interval: the wall time the simulator
    // spends on the virtual span one check occupies.
    for i in 0..reqs.len() as u64 {
        let until = SimTime::from_millis((i + 1) * SPACING_MS);
        let s = Instant::now();
        tracer.span("system.run_until", id, run_span, || {
            sheriff.run_until(until);
        });
        interval_ms.push(s.elapsed().as_secs_f64() * 1e3);
    }
    let last = reqs.len() as u64 * SPACING_MS;
    tracer.span("system.drain", id, run_span, || {
        sheriff.run_until(SimTime::from_millis(last + DRAIN_MS));
    });
    let sim_s = t.elapsed().as_secs_f64();
    tracer.close(run_span);
    Batch {
        setup_s,
        sim_s,
        done: sheriff.completed(),
        refused: sheriff.rejections(),
        counters: sheriff.telemetry().snapshot().counters,
    }
}

/// The DES requests for `seed`: [`CHECKS`] of them over [`PEERS`].
pub fn requests(seed: u64) -> Vec<Request> {
    let world = gen::world();
    gen::requests(seed, CHECKS, PEERS, &gen::check_domains(&world))
}

/// Simulation-layer figures of a set of batches.
pub fn layers(out: &mut Outcome, sim_s: f64, counters: &BTreeMap<String, u64>) {
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    let ok = out.ok;
    let events = get("netsim.messages_delivered") + get("netsim.timers_fired");
    out.per_check("netsim.events_per_check", per(0, events, ok));
    out.layer.insert(
        "system.wall_us_per_event",
        Fig::ratio(
            Ratio {
                total: sim_s * 1e6,
                base: events,
            },
            "events",
        ),
    );
    out.per_check(
        "durability.wal_bytes_per_check",
        per(0, get("db.wal_bytes"), ok),
    );
}

/// Runs batches until `seconds` of wall time have passed (at least
/// [`MIN_BATCHES`]).
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        chunk: CHECKS,
        ..Outcome::default()
    };
    let reqs = requests(seed);
    let start = Instant::now();
    let mut first_digest = None;
    let mut sim_s = 0.0;
    let mut batch_s = Vec::new();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let cpu0 = host::cpu_ms();
    let mut id = 0u64;
    while out.setup_s.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < seconds {
        let b = batch(seed, &reqs, tracer, id, &mut out.op_ms);
        out.setup_s.push(b.setup_s);
        sim_s += b.sim_s;
        batch_s.push(format!("{:.3}", b.sim_s));
        out.attempted += reqs.len() as u64;
        out.ok += b.done.len() as u64;
        for (peer, tag, why) in &b.refused {
            out.fail(format!("check {tag} from peer {peer} rejected: {why}"));
        }
        let lost = reqs.len().saturating_sub(b.done.len() + b.refused.len());
        for _ in 0..lost {
            out.fail(format!("batch {id}: a submitted check never completed"));
        }
        let d = digest(&b.done);
        match first_digest {
            None => first_digest = Some(d),
            Some(f) if f != d => {
                out.incorrect(format!("batch {id} digest {d:016x} differs from {f:016x}"));
            }
            Some(_) => {}
        }
        out.pages += b
            .done
            .iter()
            .map(|c| c.check.observations.len() as u64)
            .sum::<u64>();
        for (k, v) in b.counters {
            *totals.entry(k).or_default() += v;
        }
        id += 1;
    }
    let cpu1 = host::cpu_ms();
    out.cpu_ms = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    // Throughput counts simulation wall time only, not set-up.
    out.window_s = sim_s;
    let ok = out.ok;
    let get = |k: &str| totals.get(k).copied().unwrap_or(0);
    layers(&mut out, sim_s, &totals);
    out.per_check("protocol.acks_per_check", per(0, get("protocol.acks"), ok));
    out.per_check(
        "protocol.retransmits_per_check",
        per(0, get("protocol.retransmits"), ok),
    );
    out.per_check("measurement.pages_per_check", per(0, out.pages, ok));
    out.per_check(
        "defense.rejected_replies_per_check",
        crate::tcp::defense_refusals(&BTreeMap::new(), &totals, ok),
    );
    out.layer.insert(
        "coordinator.rejected_ratio",
        Fig::ratio(
            per(
                0,
                get("coordinator.requests_rejected"),
                get("coordinator.requests_total"),
            ),
            "requests",
        ),
    );
    out.notes.push((
        "observation_digest",
        format!("{:016x}", first_digest.unwrap_or(0)),
    ));
    out.notes.push(("batch_wall_s", batch_s.join(" ")));
    out.requests = reqs;
    out
}
