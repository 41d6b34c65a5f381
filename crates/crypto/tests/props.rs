//! Property tests for the crypto layer: the encrypted protocol must agree
//! with plain arithmetic on random inputs, and blinding must be lossless.
//! The signed small-exponent inner product and the Fermat inverse are
//! pinned to their reduce-mod-`q` and extended-Euclid formulations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_bigint::{mod_inv, Big};
use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::{Ciphertext, SecretKey};
use sheriff_crypto::ipfe::{
    client_vector, derive_function_key, eval_inner_product, server_vector, squared_distance,
};
use sheriff_crypto::protocol::{
    aggregate_cluster, coordinator_evaluate, decrypt_centroid, BlindedQuery,
};
use sheriff_crypto::GroupParams;

/// The groups the signed-exponent evaluation is checked over.
fn group(i: usize) -> GroupParams {
    [
        GroupParams::test_64,
        GroupParams::test_128,
        GroupParams::bits_256,
    ][i]()
}

/// `Π β_i^{s_i mod q} / α^f`, each negative `s_i` raised as the ~|q|-bit
/// exponent `q − |s_i|` from `exponent_from_i64`, and the quotient taken
/// with an extended-Euclid inverse.
fn eval_mod_q(gp: &GroupParams, ct: &Ciphertext, s: &[i64], f: &Big) -> Big {
    let mut num = Big::one();
    for (&si, beta) in s.iter().zip(&ct.betas) {
        num = gp.mul(&num, &gp.pow(beta, &gp.exponent_from_i64(si)));
    }
    let denom = gp.pow(&ct.alpha, f);
    gp.mul(&num, &mod_inv(&denom, &gp.p).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn signed_exponent_eval_matches_mod_q_eval(
        g in 0usize..3,
        a in proptest::collection::vec(0u64..16, 1..6),
        extra in proptest::collection::vec(-5000i64..5000, 1..6),
        seed in any::<u64>(),
    ) {
        let gp = group(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<u64> = a.iter().map(|&x| (x * 7 + seed % 16) % 16).collect();
        let c = client_vector(&a);
        let sk = SecretKey::generate(&gp, c.len(), &mut rng);
        let ct = sk.public_key().encrypt(&c, &mut rng);
        let blinded = ct.pow_all(&gp.random_exponent(&mut rng), &gp);
        // The protocol's server vector, and an arbitrary signed one.
        let arbitrary: Vec<i64> = (0..c.len()).map(|i| extra[i % extra.len()]).collect();
        for s in [server_vector(&b), arbitrary] {
            let f = derive_function_key(&sk, &s);
            for ct in [&ct, &blinded] {
                prop_assert_eq!(eval_inner_product(&gp, ct, &s, &f), eval_mod_q(&gp, ct, &s, &f));
            }
        }
    }

    #[test]
    fn fermat_inverse_matches_mod_inv(g in 0usize..3, seed in any::<u64>()) {
        let gp = group(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Big::random_below(&mut rng, &gp.p.sub(&Big::one())).add(&Big::one());
        prop_assert_eq!(gp.inv(&a), mod_inv(&a, &gp.p).unwrap());
    }

    #[test]
    fn blinded_distance_matches_plain(
        a in proptest::collection::vec(0u64..16, 1..6),
        seed in 0u64..1_000,
    ) {
        let b: Vec<u64> = a.iter().map(|&x| (x + seed) % 16).collect();
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = client_vector(&a);
        let sk = SecretKey::generate(&gp, c.len(), &mut rng);
        let ct = sk.public_key().encrypt(&c, &mut rng);

        let query = BlindedQuery::blind(&gp, &ct, &mut rng);
        let s = server_vector(&b);
        let resp = coordinator_evaluate(&sk, &query.blinded, &s);
        let table = DlogTable::build(&gp, 8192);
        prop_assert_eq!(
            query.unblind(&gp, &resp, &table),
            Some(squared_distance(&a, &b))
        );
    }

    #[test]
    fn aggregated_centroid_is_rounded_mean(
        pts in proptest::collection::vec(
            proptest::collection::vec(0u64..20, 3),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&gp, 5, &mut rng);
        let pk = sk.public_key();
        let cts: Vec<_> = pts
            .iter()
            .map(|p| pk.encrypt(&client_vector(p), &mut rng))
            .collect();
        let refs: Vec<_> = cts.iter().collect();
        let agg = aggregate_cluster(&gp, &refs).unwrap();
        let n = pts.len() as u64;
        let table = DlogTable::build(&gp, 20 * 6 + 1);
        let got = decrypt_centroid(&sk, &agg, n, 2, &table).unwrap();
        let want: Vec<u64> = (0..3)
            .map(|d| {
                let sum: u64 = pts.iter().map(|p| p[d]).sum();
                (sum + n / 2) / n
            })
            .collect();
        prop_assert_eq!(got, want);
    }
}
