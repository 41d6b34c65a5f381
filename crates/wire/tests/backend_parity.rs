//! Cross-backend parity: the discrete-event simulation and the localhost
//! TCP deployment drive the *same* sans-IO protocol machines, so with the
//! same world seed and configuration they must produce identical price
//! observations. This is the contract that lets the paper's performance
//! questions be answered in simulation while the deployment stays honest.
//!
//! Timing differs by construction (virtual clock vs. wall clock), so the
//! comparison is over the protocol-visible *content*: job ids, URLs, and
//! the full sorted observation sets.

use std::sync::Arc;

use sheriff_core::records::{PriceCheck, PriceObservation};
use sheriff_core::system::{CompletedCheck, PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::SimTime;
use sheriff_telemetry::Snapshot;
use sheriff_wire::MiniDeployment;

const SEED: u64 = 4242;

fn peers() -> Vec<PpcSpec> {
    (0..3)
        .map(|i| PpcSpec {
            peer_id: 100 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Windows,
                browser: Browser::Chrome,
            },
            affluence: 0.3 + 0.1 * (i as f64),
            logged_in_domains: vec![],
        })
        .collect()
}

/// The checks both backends run, in order.
const CHECKS: [(u64, &str, u32); 2] = [(100, "steampowered.com", 0), (101, "jcpenney.com", 2)];

fn sorted(mut obs: Vec<PriceObservation>) -> Vec<PriceObservation> {
    obs.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    obs
}

/// Both backends' runs of [`CHECKS`] over the same world and
/// configuration.
struct Runs {
    des: Vec<CompletedCheck>,
    des_telemetry: Snapshot,
    tcp: Vec<PriceCheck>,
    tcp_telemetry: Snapshot,
}

fn run_both() -> Runs {
    // --- Discrete-event run. Checks are submitted far enough apart that
    // each completes before the next is minted, matching the sequential
    // TCP client below (including the coordinator's load-based choices).
    let world = World::build(&WorldConfig::small(), SEED);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(SEED), world, &peers());
    for (i, (peer, domain, product)) in CHECKS.iter().enumerate() {
        sheriff.submit_check(
            SimTime::from_secs(10 * i as u64),
            *peer,
            domain,
            ProductId(*product),
        );
    }
    sheriff.run_until(SimTime::from_mins(5));
    assert!(sheriff.rejections().is_empty());

    // --- TCP run over the same world and configuration.
    let world = World::build(&WorldConfig::small(), SEED);
    let deployment = MiniDeployment::start_with(world, SheriffConfig::fast(SEED), &peers())
        .expect("deployment starts");
    let mut tcp = Vec::new();
    for (peer, domain, product) in CHECKS {
        tcp.push(
            deployment
                .run_check(peer, domain, ProductId(product))
                .unwrap_or_else(|e| panic!("tcp check on {domain}: {e}")),
        );
    }
    let registry = Arc::clone(deployment.telemetry());
    deployment.shutdown();

    Runs {
        des: sheriff.completed(),
        des_telemetry: sheriff.telemetry().snapshot(),
        tcp,
        tcp_telemetry: registry.snapshot(),
    }
}

#[test]
fn same_seed_same_world_identical_observations_on_both_backends() {
    let Runs { des, tcp, .. } = run_both();
    assert_eq!(des.len(), CHECKS.len(), "DES completed all checks");

    // --- Same jobs, same result sets.
    for (d, t) in des.iter().zip(&tcp) {
        assert_eq!(d.check.job_id, t.job_id);
        assert_eq!(d.check.domain, t.domain);
        assert_eq!(d.check.url, t.url);
        assert_eq!(d.check.day, t.day);
        // Initiator + 30 IPCs + 2 local PPCs.
        assert_eq!(d.check.observations.len(), 33, "{}", d.check.domain);
        assert_eq!(t.observations.len(), 33, "{}", t.domain);
        let des_obs = sorted(d.check.observations.clone());
        let tcp_obs = sorted(t.observations.clone());
        assert_eq!(
            des_obs, tcp_obs,
            "observation sets diverge for {}",
            t.domain
        );
    }
}

/// Both backends drive one protocol node per role and feed its events to
/// one telemetry applier, so the protocol-level counters of a fault-free
/// run agree exactly. Only `wire.*`/`netsim.*` (the transports) and the
/// timing-bearing histogram *values* may differ.
#[test]
fn same_seed_same_world_identical_protocol_counters_on_both_backends() {
    let Runs {
        des_telemetry: des,
        tcp_telemetry: tcp,
        ..
    } = run_both();
    const PREFIXES: [&str; 5] = [
        "coordinator.",
        "measurement.",
        "db.",
        "defense.",
        "protocol.",
    ];
    let protocol = |name: &String| PREFIXES.iter().any(|p| name.starts_with(p));
    let des_names: Vec<&String> = des.counters.keys().filter(|n| protocol(n)).collect();
    let tcp_names: Vec<&String> = tcp.counters.keys().filter(|n| protocol(n)).collect();
    assert_eq!(
        des_names, tcp_names,
        "both backends publish the same counters"
    );
    // Non-vacuous: the TCP backend now reports what its machines did.
    let checks = CHECKS.len() as u64;
    assert_eq!(tcp.counters["measurement.jobs_finished"], checks);
    assert_eq!(tcp.counters["db.wal_appends"], checks);
    for name in des_names {
        assert_eq!(
            des.counters[name], tcp.counters[name],
            "counter {name} diverges between backends"
        );
    }
    for name in [
        "measurement.fanout_latency_ms",
        "measurement.assembly_cpu_ms",
        "db.query_cost_ms",
    ] {
        let (Some(d), Some(t)) = (des.histograms.get(name), tcp.histograms.get(name)) else {
            panic!("histogram {name} missing on a backend");
        };
        assert_eq!(d.count, t.count, "histogram {name} sample counts diverge");
    }
}
