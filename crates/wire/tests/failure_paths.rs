//! Failure paths over the TCP backend — the same scenarios `sheriff-core`
//! exercises in simulation (heartbeat expiry mid-job, refusing to
//! decommission a busy server, a `StoreCheck` the reliable channel gives
//! up on) must hold when the protocol machines run behind real sockets,
//! because the decisions live in `sheriff_core::protocol`, not in either
//! transport.

use std::sync::Arc;
use std::time::Duration;

use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_netsim::{FaultPlan, LinkFaults, SimTime};
use sheriff_telemetry::Snapshot;
use sheriff_wire::MiniDeployment;

fn es_peers(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 60 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            affluence: 0.4,
            logged_in_domains: vec![],
        })
        .collect()
}

/// Config tuned so a check completes in ~1s of wall time with no IPC
/// fan-out: slow enough to observe a busy server, fast enough for CI.
fn slow_job_cfg(seed: u64) -> SheriffConfig {
    let mut cfg = SheriffConfig::v1(seed);
    cfg.ipc_locations.clear();
    cfg.proc_per_reply_ms = 300.0;
    cfg.context_switch_alpha = 0.0;
    cfg.job_deadline_ms = 10_000;
    cfg.heartbeat_every_ms = 3_600_000; // no beacons during the test
    cfg.heartbeat_timeout_ms = 30_000;
    cfg
}

/// Servers whose heartbeats lapse while a job is in flight finish that
/// job (the assignment already happened) but take no new ones: the next
/// request is refused with `NoServerAvailable`.
#[test]
fn heartbeat_expiry_mid_job_refuses_new_requests_over_tcp() {
    let mut cfg = slow_job_cfg(37);
    cfg.heartbeat_timeout_ms = 700; // lapses during the ~1s first job
    let world = World::build(&WorldConfig::small(), 37);
    let deployment =
        MiniDeployment::start_with(world, cfg, &es_peers(3)).expect("deployment starts");

    // Assigned at t≈0 while heartbeats (registered at t=0) are fresh;
    // assembly alone takes ~0.9s, past the 700ms timeout.
    let first = deployment
        .run_check(60, "steampowered.com", ProductId(0))
        .expect("first check assigned before expiry");
    assert_eq!(first.observations.len(), 3, "initiator + 2 local peers");

    // No beacon ever arrived, so by now every server's heartbeat lapsed.
    let err = deployment
        .run_check(61, "steampowered.com", ProductId(1))
        .expect_err("no live server remains");
    assert!(err.contains("NoServerAvailable"), "{err}");

    let snap = deployment.telemetry().snapshot();
    assert!(
        snap.counters["coordinator.heartbeats_expired"] >= 1,
        "expiry must be recorded"
    );
    deployment.shutdown();
}

/// §5-style administration: a Measurement server with a non-drained job
/// queue may not be decommissioned; once the queue drains the same
/// request succeeds.
#[test]
fn remove_server_refused_while_busy_over_tcp() {
    let world = World::build(&WorldConfig::small(), 41);
    let deployment = Arc::new(
        MiniDeployment::start_with(world, slow_job_cfg(41), &es_peers(2))
            .expect("deployment starts"),
    );

    // v1 runs a single Measurement server, so the in-flight check below
    // necessarily occupies server 0.
    let d = Arc::clone(&deployment);
    let in_flight = std::thread::spawn(move || d.run_check(60, "amazon.com", ProductId(2)));

    // Well inside the ~0.6s assembly window: job assigned, not finished.
    std::thread::sleep(Duration::from_millis(250));
    let refused = deployment
        .remove_server(61, 0)
        .expect("refusal is an answer, not an error");
    assert!(!refused, "server with a pending job must not be removed");

    let check = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight check still completes");
    assert!(!check.observations.is_empty());

    // Queue drained: the same request now takes the server offline.
    let removed = deployment
        .remove_server(61, 0)
        .expect("drained server responds");
    assert!(removed, "drained server must be removable");

    match Arc::try_unwrap(deployment) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("deployment still shared"),
    }
}

/// v2, one Measurement server, no IPCs, with a 1 ms retransmit base so
/// the reliable channel's 16-attempt budget (backoff capped at 10 s) is
/// spent in about 50 s instead of minutes.
fn store_cut_cfg(seed: u64) -> SheriffConfig {
    let mut cfg = SheriffConfig::fast(seed);
    cfg.n_measurement_servers = 1;
    cfg.ipc_locations.clear();
    cfg.retransmit_base_ms = 1;
    cfg
}

/// Node layout `[coordinator, aggregator, db, server, peers…]`: every
/// frame from the Measurement server (3) to the Database (2) is lost,
/// for the whole run — far past the give-up horizon.
fn store_cut_plan() -> FaultPlan {
    let dead = LinkFaults {
        drop: 1.0,
        ..LinkFaults::NONE
    };
    FaultPlan::new(5).with_link(3, 2, dead)
}

/// The check finished through the abandoned-`StoreCheck` path: the
/// channel gave up, nothing reached the WAL, and the job still finished
/// and was released at the Coordinator.
fn assert_finished_through_give_up(snap: &Snapshot) {
    assert!(snap.counters["protocol.retransmit_gave_up"] >= 1);
    assert_eq!(snap.counters["db.wal_appends"], 0, "no store got through");
    assert_eq!(snap.counters["measurement.jobs_finished"], 1);
    assert_eq!(snap.counters["coordinator.jobs_completed"], 1);
}

/// A `StoreCheck` the reliable channel gives up on must still finish the
/// job on both backends: the Measurement server's `on_send_abandoned`
/// streams the results and releases the job upstream. The TCP reactor
/// used to route give-ups to the PPC add-on only, so the check hung.
#[test]
fn abandoned_store_still_finishes_the_check_on_both_backends() {
    let world = World::build(&WorldConfig::small(), 43);
    let mut sheriff = PriceSheriff::new(store_cut_cfg(43), world, &es_peers(3));
    sheriff.install_fault_plan(store_cut_plan());
    sheriff.submit_check(SimTime::ZERO, 60, "steampowered.com", ProductId(0));
    sheriff.run_until(SimTime::from_mins(3));
    let done = sheriff.completed();
    assert_eq!(done.len(), 1, "DES check finishes without its store");
    assert_eq!(done[0].check.observations.len(), 3, "initiator + 2 peers");
    assert_eq!(sheriff.pending_jobs_per_server(), vec![0], "no leaked job");
    assert!(sheriff.database_checks().is_empty());
    assert_finished_through_give_up(&sheriff.telemetry().snapshot());

    let world = World::build(&WorldConfig::small(), 43);
    let deployment =
        MiniDeployment::start_with_faults(world, store_cut_cfg(43), &es_peers(3), store_cut_plan())
            .expect("deployment starts");
    let tag = deployment
        .begin_check(60, "steampowered.com", ProductId(0))
        .expect("check begins");
    // Each wait is bounded at 30 s; the give-up lands after about 50 s.
    let check = (0..3)
        .find_map(|_| deployment.await_check(tag).ok())
        .expect("TCP check finishes without its store");
    assert_eq!(check.observations.len(), 3, "initiator + 2 peers");
    let registry = Arc::clone(deployment.telemetry());
    let recovered = deployment.shutdown_and_recover_db();
    assert!(recovered.is_empty(), "nothing was stored");
    assert_finished_through_give_up(&registry.snapshot());
}
