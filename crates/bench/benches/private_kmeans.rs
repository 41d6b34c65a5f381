//! Fig. 8c as a Criterion bench: one private k-means iteration — the
//! mapping phase plus the centroid update — across (k, m) at one thread
//! and at every core the host offers. Keys, client encryption and both
//! discrete-log tables are built before timing starts. Small sizes keep
//! the bench runnable in CI; the `fig8c_private_kmeans_timing` binary
//! sweeps paper sizes.

// The criterion macros expand to undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_bench::synthetic_points;
use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::ipfe::client_vector;
use sheriff_crypto::GroupParams;
use sheriff_kmeans::private::{Aggregator, Coordinator};

const SCALE: u64 = 8;

fn bench_private_iteration(c: &mut Criterion) {
    let params = GroupParams::test_64();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut arms = vec![1usize, nproc];
    arms.dedup();
    let mut group = c.benchmark_group("private_kmeans_iteration");
    group.sample_size(10);
    for (n, k, m) in [(20usize, 4usize, 20usize), (20, 8, 20), (40, 4, 20)] {
        let points = synthetic_points(n, m, SCALE, 11);
        let mut rng = StdRng::seed_from_u64(17);
        let mut coordinator = Coordinator::setup(&params, m, k, SCALE, &mut rng);
        coordinator.set_centroids(synthetic_points(k, m, SCALE, 13));
        let pk = coordinator.public_key();
        let cts = points
            .iter()
            .map(|p| pk.encrypt(&client_vector(p), &mut rng))
            .collect();
        let mut aggregator = Aggregator::new(&params, cts);
        let dist_table = DlogTable::build(&params, m as u64 * SCALE * SCALE + 1);
        let sum_table = DlogTable::build(&params, n as u64 * SCALE + 1);
        for &threads in &arms {
            let label = format!("n{n}_k{k}_m{m}_t{threads}");
            group.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
                b.iter(|| {
                    aggregator.map_clients(&coordinator, &dist_table, threads, &mut rng);
                    aggregator.update_centroids(&mut coordinator, k, &sum_table);
                });
            });
        }
    }
    group.finish();
}

fn bench_plain_kmeans_baseline(c: &mut Criterion) {
    // The cleartext baseline the private protocol is compared against.
    use sheriff_kmeans::{kmeans, to_unit_f64, KmeansConfig};
    let points: Vec<Vec<f64>> = synthetic_points(200, 50, 16, 19)
        .iter()
        .map(|p| to_unit_f64(p, 16))
        .collect();
    c.bench_function("plain_kmeans_n200_k8_m50", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(23);
            kmeans(
                std::hint::black_box(&points),
                &KmeansConfig {
                    k: 8,
                    max_iters: 20,
                    ..Default::default()
                },
                &mut rng,
            )
        });
    });
}

criterion_group!(
    benches,
    bench_private_iteration,
    bench_plain_kmeans_baseline
);
criterion_main!(benches);
