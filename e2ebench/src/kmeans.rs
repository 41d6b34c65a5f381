//! `kmeans_256`: private k-means driven phase by phase through
//! `sheriff_kmeans::private::{Coordinator, Aggregator}` at 256 bits.
//! The only workload that touches `bigint`, `crypto` and `kmeans`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::Ciphertext;
use sheriff_crypto::ipfe::client_vector;
use sheriff_crypto::GroupParams;
use sheriff_kmeans::private::{reference_integer_kmeans, Aggregator, Coordinator};

use crate::gen;
use crate::host;
use crate::outcome::{Fig, Outcome};
use crate::trace::Tracer;

/// Clients.
pub const N: usize = 40;
/// Clusters.
pub const K: usize = 8;
/// Profile dimensions.
pub const M: usize = 20;
/// Quantization grid `0..=SCALE`.
pub const SCALE: u64 = 8;
/// Iterations per cycle.
pub const ITERS: usize = 3;
/// Fewest cycles per run: set-up time is their median.
const MIN_CYCLES: usize = 3;

/// Worker threads for the mapping phase: every core the host offers.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The workload's inputs for `seed`: client points, and the fixed
/// initial centroids (the first point of each hidden group).
pub fn inputs(seed: u64) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let points = gen::kmeans_points(seed, N, M, SCALE, K);
    let init = points[..K].to_vec();
    (points, init)
}

/// Everything before the first timed iteration: keys, client
/// encryption, both discrete-log tables.
pub struct Setup {
    /// Coordinator role, holding keys and centroids.
    pub coordinator: Coordinator,
    /// Aggregator role, holding the encrypted clients.
    pub aggregator: Aggregator,
    /// Table for squared distances.
    pub dist_table: DlogTable,
    /// Table for centroid sums.
    pub sum_table: DlogTable,
    /// Wall ms spent encrypting clients.
    pub encrypt_ms: f64,
    /// Wall ms spent building both tables.
    pub dlog_ms: f64,
}

/// Builds a [`Setup`] from the inputs, with a seeded protocol RNG.
pub fn setup(
    params: &GroupParams,
    points: &[Vec<u64>],
    init: &[Vec<u64>],
    rng: &mut StdRng,
    tracer: &Tracer,
    trace: u64,
) -> Setup {
    let mut coordinator = tracer.span("kmeans.keygen", trace, None, || {
        Coordinator::setup(params, M, K, SCALE, rng)
    });
    coordinator.set_centroids(init.to_vec());
    let pk = coordinator.public_key();
    let t = Instant::now();
    let cts: Vec<Ciphertext> = tracer.span("crypto.encrypt_clients", trace, None, || {
        points
            .iter()
            .map(|p| pk.encrypt(&client_vector(p), rng))
            .collect()
    });
    let encrypt_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (dist_table, sum_table) = tracer.span("crypto.dlog_build", trace, None, || {
        (
            DlogTable::build(params, M as u64 * SCALE * SCALE + 1),
            DlogTable::build(params, points.len() as u64 * SCALE + 1),
        )
    });
    let dlog_ms = t.elapsed().as_secs_f64() * 1e3;
    Setup {
        aggregator: Aggregator::new(params, cts),
        coordinator,
        dist_table,
        sum_table,
        encrypt_ms,
        dlog_ms,
    }
}

/// Runs cycles — set-up, [`ITERS`] timed iterations, a final mapping
/// and the check against the cleartext reference — until `seconds`
/// have passed (at least [`MIN_CYCLES`]).
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        chunk: ITERS,
        ..Outcome::default()
    };
    let params = GroupParams::bits_256();
    let (points, init) = inputs(seed);
    let expect = reference_integer_kmeans(&points, init.clone(), ITERS, -1.0);
    let threads = threads();
    let (mut map_ms, mut update_ms, mut encrypt_ms, mut dlog_ms) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut cpu = (0.0, 0.0);
    let mut window = 0.0;
    let mut cycle = 0u64;
    while out.setup_s.len() < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6b6d);
        let t = Instant::now();
        let mut s = setup(&params, &points, &init, &mut rng, tracer, cycle);
        out.setup_s.push(t.elapsed().as_secs_f64());
        encrypt_ms.push(s.encrypt_ms / N as f64);
        dlog_ms.push(s.dlog_ms);

        let cpu0 = host::cpu_ms();
        for it in 0..ITERS {
            let trace = cycle * 16 + it as u64;
            let iter_span = tracer.open("kmeans.iteration", trace);
            let t = Instant::now();
            tracer.span("kmeans.map_clients", trace, iter_span, || {
                s.aggregator
                    .map_clients(&s.coordinator, &s.dist_table, threads, &mut rng)
            });
            let mapped = Instant::now();
            tracer.span("kmeans.update_centroids", trace, iter_span, || {
                s.aggregator
                    .update_centroids(&mut s.coordinator, K, &s.sum_table);
            });
            let done = Instant::now();
            tracer.close(iter_span);
            map_ms.push((mapped - t).as_secs_f64() * 1e3);
            update_ms.push((done - mapped).as_secs_f64() * 1e3);
            out.op_ms.push((done - t).as_secs_f64() * 1e3);
            window += (done - t).as_secs_f64();
            out.attempted += 1;
        }
        let cpu1 = host::cpu_ms();
        cpu.0 += cpu1.0 - cpu0.0;
        cpu.1 += cpu1.1 - cpu0.1;

        // The gate: final mapping, then centroids and assignments must
        // equal the cleartext reference from the same initial centroids.
        s.aggregator
            .map_clients(&s.coordinator, &s.dist_table, threads, &mut rng);
        if s.coordinator.centroids() != expect.centroids.as_slice()
            || s.aggregator.assignments() != expect.assignments.as_slice()
        {
            for _ in 0..ITERS {
                out.fail(format!("cycle {cycle}: result differs from the reference"));
            }
            out.incorrect(format!(
                "cycle {cycle}: private k-means differs from the reference"
            ));
        } else {
            out.ok += ITERS as u64;
        }
        cycle += 1;
    }
    out.cpu_ms = cpu;
    out.window_s = window;
    for (name, v) in [
        ("kmeans.map_ms", &map_ms),
        ("kmeans.update_ms", &update_ms),
        ("kmeans.encrypt_ms_per_client", &encrypt_ms),
        ("kmeans.dlog_build_ms", &dlog_ms),
    ] {
        out.layer.insert(name, Fig::median(v));
    }
    out.notes.push(("threads", threads.to_string()));
    out.notes.push(("cycles", cycle.to_string()));
    out
}
