//! Property-based tests for the big-integer substrate.
//!
//! These pin the algebraic laws the crypto layer depends on: ring axioms,
//! the division identity, shift/multiply equivalence, and the group laws of
//! modular exponentiation. The Montgomery exponentiation is pinned to a
//! plain square-and-multiply oracle on random moduli up to 2048 bits and on
//! the moduli of every baked `sheriff-crypto` group.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_bigint::{mod_inv, mod_mul, mod_pow, Big, Montgomery};

fn big_from_bytes(bytes: &[u8]) -> Big {
    // Interpret arbitrary bytes as a hex-ish number by mapping each byte to a
    // limb fragment; simpler: accumulate base-256.
    let mut acc = Big::zero();
    let b256 = Big::from_u64(256);
    for &byte in bytes {
        acc = acc.mul(&b256).add(&Big::from_u64(u64::from(byte)));
    }
    acc
}

fn arb_big() -> impl Strategy<Value = Big> {
    proptest::collection::vec(any::<u8>(), 0..40).prop_map(|v| big_from_bytes(&v))
}

/// Plain square-and-multiply over `Big::mul` and `Big::rem`: the oracle
/// the Montgomery path must agree with.
fn oracle_pow(base: &Big, exp: &Big, m: &Big) -> Big {
    if m.is_one() {
        return Big::zero();
    }
    let base = base.rem(m);
    let mut acc = Big::one();
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul(&acc).rem(m);
        if exp.bit(i) {
            acc = acc.mul(&base).rem(m);
        }
    }
    acc
}

/// The moduli of `sheriff-crypto`'s baked groups: the 64-, 128-, 256- and
/// 512-bit safe primes and RFC 3526 group 14.
const BAKED_MODULI: [&str; 5] = [
    "a1c71aa2e828476b",
    "84221bf2e9f5d7bbe3c984f439570fc7",
    "c73f13a146a14dc8e3766c64650a0df40198173114a3cfc87e21e6999bb0aec7",
    concat!(
        "a561d0102b2242db157e15bb99cd00d3d6b66850af04101aceb1ec4b40537750",
        "8b070cfd5c3bdf18cfc25f6b06f2dd72ef3a89470c08f47a944526d6ae8e2a0b",
    ),
    concat!(
        "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74",
        "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437",
        "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed",
        "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05",
        "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb",
        "9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3b",
        "e39e772c180e86039b2783a2ec07a28fb5c55df06f4c52c9de2bcbf695581718",
        "3995497cea956ae515d2261898fa051015728e5a8aacaa68ffffffffffffffff",
    ),
];

#[test]
fn modpow_edge_cases_match_oracle() {
    let m =
        Big::from_hex("c73f13a146a14dc8e3766c64650a0df40198173114a3cfc87e21e6999bb0aec7").unwrap();
    let e = Big::from_u64(0x1234_5678_9abc);
    let cases = [
        (m.add(&Big::from_u64(5)), e.clone()),
        (m.mul(&m).add(&Big::from_u64(3)), e.clone()),
        (m.clone(), e.clone()),
        (Big::zero(), e.clone()),
        (Big::from_u64(7), Big::zero()),
        (Big::zero(), Big::zero()),
    ];
    for (base, exp) in &cases {
        assert_eq!(
            mod_pow(base, exp, &m),
            oracle_pow(base, exp, &m),
            "{base:?}^{exp:?}"
        );
    }
    for (base, exp) in &cases {
        assert_eq!(mod_pow(base, exp, &Big::one()), Big::zero());
    }
    assert!(Montgomery::new(&Big::one()).is_none());
    assert!(Montgomery::new(&Big::from_u64(1 << 40)).is_none());
}

#[test]
fn modpow_matches_oracle_on_baked_groups() {
    let mut rng = StdRng::seed_from_u64(0x6261_6b65);
    for hex in BAKED_MODULI {
        let p = Big::from_hex(hex).unwrap();
        let ctx = Montgomery::new(&p).unwrap();
        for _ in 0..2 {
            let base = Big::random_below(&mut rng, &p);
            let exp = Big::random_below(&mut rng, &p);
            let want = oracle_pow(&base, &exp, &p);
            assert_eq!(mod_pow(&base, &exp, &p), want, "p={hex}");
            assert_eq!(ctx.pow(&base, &exp), want, "p={hex}");
        }
        for _ in 0..32 {
            let a = Big::random_below(&mut rng, &p);
            let b = Big::random_below(&mut rng, &p);
            assert_eq!(ctx.mul(&a, &b), mod_mul(&a, &b, &p), "p={hex}");
        }
    }
}

fn arb_big_nonzero() -> impl Strategy<Value = Big> {
    arb_big().prop_map(|b| if b.is_zero() { Big::one() } else { b })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in arb_big(), b in arb_big()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in arb_big(), b in arb_big(), c in arb_big()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in arb_big(), b in arb_big()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in arb_big(), b in arb_big(), c in arb_big()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_sub_roundtrip(a in arb_big(), b in arb_big()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn division_identity(a in arb_big(), d in arb_big_nonzero()) {
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
        prop_assert!(r < d);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_big(), s in 0usize..100) {
        let pow2 = Big::one().shl(s);
        prop_assert_eq!(a.shl(s), a.mul(&pow2));
    }

    #[test]
    fn shl_shr_roundtrip(a in arb_big(), s in 0usize..100) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_big()) {
        prop_assert_eq!(Big::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_big()) {
        prop_assert_eq!(Big::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..64, m in 2u64..100_000) {
        let naive = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * u128::from(base) % u128::from(m);
            }
            acc as u64
        };
        let got = mod_pow(&Big::from_u64(base), &Big::from_u64(exp), &Big::from_u64(m));
        prop_assert_eq!(got, Big::from_u64(naive));
    }

    #[test]
    fn modpow_adds_exponents(a in arb_big_nonzero(), e1 in 0u64..500, e2 in 0u64..500) {
        // Fixed odd modulus large enough to be interesting.
        let m = Big::from_hex("ffffffffffffffffffffffc5").unwrap();
        let lhs = mod_pow(&a, &Big::from_u64(e1 + e2), &m);
        let rhs = mod_mul(
            &mod_pow(&a, &Big::from_u64(e1), &m),
            &mod_pow(&a, &Big::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_property(a in 1u64..1_000_000) {
        // p prime => every nonzero a has an inverse.
        let p = Big::from_u64(1_000_000_007);
        let a = Big::from_u64(a);
        let inv = mod_inv(&a, &p).unwrap();
        prop_assert_eq!(mod_mul(&a, &inv, &p), Big::one());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn modpow_matches_oracle_on_random_moduli(bits in 64usize..=2048, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Big::random_bits(&mut rng, bits);
        let m = if m.is_even() { m.add(&Big::one()) } else { m };
        // Bases up to 2^8·m exercise the reduction of out-of-range input;
        // exponents span up to 512 bits to keep the oracle affordable.
        let base = Big::random_below(&mut rng, &m.shl(8));
        let exp = Big::random_below(&mut rng, &Big::one().shl(bits.min(512)));
        prop_assert_eq!(mod_pow(&base, &exp, &m), oracle_pow(&base, &exp, &m));
        let ctx = Montgomery::new(&m).unwrap();
        prop_assert_eq!(ctx.mul(&base, &exp), base.mul(&exp).rem(&m));
        // The even neighbour takes the plain step inside the same loop.
        let even = m.add(&Big::one());
        prop_assert_eq!(mod_pow(&base, &exp, &even), oracle_pow(&base, &exp, &even));
    }
}
