//! Modular arithmetic helpers over [`Big`] values.
//!
//! All functions take the modulus last and assume (but where cheap, assert)
//! that inputs are already reduced. Exponentiation is the hot path of the
//! privacy-preserving *k*-means protocol, which performs `O(n·k·m)`
//! exponentiations per iteration (paper Fig. 8c), so it runs on
//! [`Montgomery`] multiplication: fixed-width `u64` limbs, CIOS reduction,
//! no division and no allocation inside the multiply or the window loop.
//! Even moduli, which have no Montgomery form, take a plain
//! multiply-and-divide step inside the same window loop.

use crate::big::Big;

/// `(a + b) mod m` for reduced `a`, `b`.
pub fn mod_add(a: &Big, b: &Big, m: &Big) -> Big {
    let s = a.add(b);
    if s >= *m {
        s.sub(m)
    } else {
        s
    }
}

/// `(a - b) mod m` for reduced `a`, `b`.
pub fn mod_sub(a: &Big, b: &Big, m: &Big) -> Big {
    if a >= b {
        a.sub(b)
    } else {
        a.add(m).sub(b)
    }
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &Big, b: &Big, m: &Big) -> Big {
    a.mul(b).rem(m)
}

/// `base^exp mod m` by fixed-window exponentiation.
///
/// Returns 1 for `exp == 0` (including `base == 0`, matching the usual
/// convention), and panics on a zero modulus. Odd moduli run on
/// [`Montgomery`] multiplication; callers that exponentiate repeatedly
/// under one modulus should build the context once and call
/// [`Montgomery::pow`].
pub fn mod_pow(base: &Big, exp: &Big, m: &Big) -> Big {
    assert!(!m.is_zero(), "mod_pow: zero modulus");
    if let Some(ctx) = Montgomery::new(m) {
        return ctx.pow(base, exp);
    }
    if m.is_one() {
        return Big::zero();
    }
    if exp.is_zero() {
        return Big::one();
    }
    let n = m.limbs().len().div_ceil(2);
    let mut b = vec![0u64; n];
    load(&base.rem(m), &mut b);
    let mut one = vec![0u64; n];
    one[0] = 1;
    store(&pow_window(Step::Plain(m), &b, &one, exp))
}

/// Precomputed Montgomery context for one odd modulus `m > 1`.
///
/// Holds `m` as `n` little-endian `u64` limbs, `-m⁻¹ mod 2⁶⁴`, and
/// `R mod m` and `R² mod m` for `R = 2^(64·n)`. Building it costs two
/// big divisions; every multiply afterwards is division-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Montgomery {
    m: Big,
    limbs: Vec<u64>,
    m_inv: u64,
    /// `R mod m`, the Montgomery form of 1.
    one: Vec<u64>,
    r2: Vec<u64>,
}

impl Montgomery {
    /// Builds the context for `m`, or `None` when `m` is even or `m <= 1`
    /// (Montgomery reduction needs `gcd(m, 2⁶⁴) = 1`).
    pub fn new(m: &Big) -> Option<Self> {
        if m.is_even() || m.is_one() {
            return None;
        }
        let n = m.limbs().len().div_ceil(2);
        let mut limbs = vec![0u64; n];
        load(m, &mut limbs);
        // Newton iteration for m⁻¹ mod 2⁶⁴: each step doubles the number
        // of correct low bits, and 1 is correct to one bit for odd m.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inv)));
        }
        let mut one = vec![0u64; n];
        load(&Big::one().shl(64 * n).rem(m), &mut one);
        let mut r2 = vec![0u64; n];
        load(&Big::one().shl(128 * n).rem(m), &mut r2);
        Some(Montgomery {
            m: m.clone(),
            limbs,
            m_inv: inv.wrapping_neg(),
            one,
            r2,
        })
    }

    /// `base^exp mod m`, with the conventions of [`mod_pow`].
    pub fn pow(&self, base: &Big, exp: &Big) -> Big {
        if exp.is_zero() {
            return Big::one();
        }
        let n = self.limbs.len();
        let mut b = vec![0u64; n];
        self.load_reduced(base, &mut b);
        if b.iter().all(|&l| l == 0) {
            return Big::zero();
        }
        let mut t = vec![0u64; n + 1];
        self.mont_mul(&b, &self.r2, &mut t);
        let acc = pow_window(Step::Mont(self), &t[..n], &self.one, exp);
        self.leave_mont(&acc)
    }

    /// `a * b mod m`.
    pub fn mul(&self, a: &Big, b: &Big) -> Big {
        let n = self.limbs.len();
        let mut x = vec![0u64; n];
        let mut y = vec![0u64; n];
        self.load_reduced(a, &mut x);
        self.load_reduced(b, &mut y);
        // (a·b·R⁻¹)·R²·R⁻¹ = a·b.
        let mut t = vec![0u64; n + 1];
        self.mont_mul(&x, &y, &mut t);
        x.copy_from_slice(&t[..n]);
        self.mont_mul(&x, &self.r2, &mut t);
        store(&t[..n])
    }

    /// Loads `x mod m` into `out`.
    fn load_reduced(&self, x: &Big, out: &mut [u64]) {
        if *x < self.m {
            load(x, out);
        } else {
            load(&x.rem(&self.m), out);
        }
    }

    /// Leaves Montgomery form: `x·R⁻¹ mod m`.
    fn leave_mont(&self, x: &[u64]) -> Big {
        let n = self.limbs.len();
        let mut unit = vec![0u64; n];
        unit[0] = 1;
        let mut t = vec![0u64; n + 1];
        self.mont_mul(x, &unit, &mut t);
        store(&t[..n])
    }

    /// CIOS Montgomery multiplication: leaves `a·b·R⁻¹ mod m` in
    /// `t[..n]` for `a, b < m` given as `n` limbs. `t` is `n + 1` limbs of
    /// scratch; its top limb is zero on return.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let m = &self.limbs[..];
        let n = m.len();
        let (a, b, t) = (&a[..n], &b[..n], &mut t[..=n]);
        t.fill(0);
        // Each pass adds a·b_i and u·m, with u chosen so the low limb
        // cancels, and shifts down one limb; t stays below 2m.
        // sheriff-lint: hot-loop
        for &bi in b {
            let bi = u128::from(bi);
            let s = u128::from(t[0]) + u128::from(a[0]) * bi;
            let u = u128::from((s as u64).wrapping_mul(self.m_inv));
            let mut c1 = s >> 64;
            let mut c2 = (u128::from(s as u64) + u * u128::from(m[0])) >> 64;
            for j in 1..n {
                let s = u128::from(t[j]) + u128::from(a[j]) * bi + c1;
                c1 = s >> 64;
                let r = u128::from(s as u64) + u * u128::from(m[j]) + c2;
                t[j - 1] = r as u64;
                c2 = r >> 64;
            }
            let s = u128::from(t[n]) + c1 + c2;
            t[n - 1] = s as u64;
            t[n] = (s >> 64) as u64;
        }
        // The result is below 2m: one conditional subtraction reduces it.
        if t[n] != 0 || !less_than(&t[..n], m) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *tj = d;
                borrow = b1 || b2;
            }
            t[n] = 0;
        }
    }
}

/// The multiply step of the exponent window loop.
enum Step<'a> {
    /// Montgomery multiplication; operands and results in Montgomery form.
    Mont(&'a Montgomery),
    /// Schoolbook multiply and long division, for even moduli. Allocates.
    Plain(&'a Big),
}

impl Step<'_> {
    /// Leaves `a·b` (in the step's representation) in `t[..n]`.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        match self {
            Step::Mont(ctx) => ctx.mont_mul(a, b, t),
            Step::Plain(m) => load(&store(a).mul(&store(b)).rem(m), t),
        }
    }
}

/// `base^exp` by a fixed window, most significant window first. `base`
/// and `one` are `n`-limb values in `step`'s representation, and the result
/// is too. `exp` must be nonzero.
///
/// The window is 4 bits, except for exponents of at most 32 bits (the
/// protocol's `|s_i| ≤ m·scale²`): there a 16-entry table's 14 multiplies
/// cost more than the whole bit-by-bit loop, so the window is 1 bit.
fn pow_window(step: Step<'_>, base: &[u64], one: &[u64], exp: &Big) -> Vec<u64> {
    let n = base.len();
    let bits = exp.bit_len();
    let width = if bits <= 32 { 1 } else { 4 };
    let mut t = vec![0u64; n + 1];
    // table[w] = base^w for every window value w, each n limbs.
    let mut table = vec![0u64; n << width];
    table[..n].copy_from_slice(one);
    table[n..2 * n].copy_from_slice(base);
    for w in 2..1 << width {
        step.mul(&table[(w - 1) * n..w * n], base, &mut t);
        table[w * n..(w + 1) * n].copy_from_slice(&t[..n]);
    }

    let windows = bits.div_ceil(width);
    let mut acc = vec![0u64; n + 1];
    let top = window(exp, windows - 1, width);
    acc[..n].copy_from_slice(&table[top * n..(top + 1) * n]);
    // sheriff-lint: hot-loop
    for i in (0..windows - 1).rev() {
        for _ in 0..width {
            step.mul(&acc[..n], &acc[..n], &mut t);
            std::mem::swap(&mut acc, &mut t);
        }
        let w = window(exp, i, width);
        if w != 0 {
            step.mul(&acc[..n], &table[w * n..(w + 1) * n], &mut t);
            std::mem::swap(&mut acc, &mut t);
        }
    }
    acc.truncate(n);
    acc
}

/// Window `i` of `width` bits (little-endian) of `exp`. `width` divides
/// 32, so a window never straddles a `u32` limb.
fn window(exp: &Big, i: usize, width: usize) -> usize {
    let bit = i * width;
    exp.limbs()
        .get(bit / 32)
        .map_or(0, |&l| ((l >> (bit % 32)) & ((1 << width) - 1)) as usize)
}

/// `a < b` for equal-length little-endian limb slices.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Writes `x` into `out` as little-endian `u64` limbs; `x` must fit.
fn load(x: &Big, out: &mut [u64]) {
    out.fill(0);
    for (i, &l) in x.limbs().iter().enumerate() {
        out[i / 2] |= u64::from(l) << (32 * (i % 2));
    }
}

/// Builds a [`Big`] from little-endian `u64` limbs.
fn store(x: &[u64]) -> Big {
    Big::from_limbs(
        x.iter()
            .flat_map(|&l| [l as u32, (l >> 32) as u32])
            .collect(),
    )
}

/// Modular inverse of `a` mod `m` via the extended Euclidean algorithm.
///
/// Returns `None` when `gcd(a, m) != 1`.
pub fn mod_inv(a: &Big, m: &Big) -> Option<Big> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    // Extended Euclid with coefficients tracked as (value, negative?) pairs
    // to avoid a signed big-integer type.
    let mut r0 = m.clone();
    let mut r1 = a.rem(m);
    if r1.is_zero() {
        return None;
    }
    // t0 = 0, t1 = 1; signs tracked separately.
    let mut t0 = Big::zero();
    let mut t0_neg = false;
    let mut t1 = Big::one();
    let mut t1_neg = false;

    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        // t2 = t0 - q * t1 (signed arithmetic on magnitudes).
        let qt1 = q.mul(&t1);
        let (t2, t2_neg) = signed_sub(&t0, t0_neg, &qt1, t1_neg);
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t0_neg = t1_neg;
        t1 = t2;
        t1_neg = t2_neg;
    }
    if !r0.is_one() {
        return None; // not coprime
    }
    let inv = if t0_neg { m.sub(&t0.rem(m)) } else { t0.rem(m) };
    Some(inv.rem(m))
}

/// Signed subtraction `x - q` where `x = (xv, x_neg)` and the subtrahend's
/// sign is `q_neg` (i.e. computes `x - (±q)`); returns magnitude and sign.
fn signed_sub(xv: &Big, x_neg: bool, qv: &Big, q_neg: bool) -> (Big, bool) {
    // x - q*sign: the subtrahend is qv with sign q_neg; we subtract it, so its
    // effective sign flips.
    let sub_neg = !q_neg;
    if x_neg == sub_neg {
        // Same sign: magnitudes add.
        (xv.add(qv), x_neg)
    } else if xv >= qv {
        (xv.sub(qv), x_neg)
    } else {
        (qv.sub(xv), sub_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> Big {
        Big::from_u64(v)
    }

    #[test]
    fn add_sub_wraparound() {
        let m = b(97);
        assert_eq!(mod_add(&b(96), &b(5), &m), b(4));
        assert_eq!(mod_sub(&b(3), &b(5), &m), b(95));
        assert_eq!(mod_sub(&b(5), &b(3), &m), b(2));
    }

    #[test]
    fn pow_small_cases() {
        let m = b(1_000_000_007);
        assert_eq!(mod_pow(&b(2), &b(10), &m), b(1024));
        assert_eq!(mod_pow(&b(2), &b(0), &m), b(1));
        assert_eq!(mod_pow(&b(0), &b(5), &m), b(0));
        assert_eq!(mod_pow(&b(0), &b(0), &m), b(1));
        assert_eq!(mod_pow(&b(7), &b(1), &m), b(7));
    }

    #[test]
    fn pow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p
        let p = b(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(mod_pow(&b(a), &p.sub(&Big::one()), &p), Big::one());
        }
    }

    #[test]
    fn pow_large_modulus() {
        // 2^255 mod (2^255 - 19)-ish prime check against known value via
        // structure: choose p = 2^127 - 1 (Mersenne prime), then
        // 2^127 mod p = 1 + ... actually 2^127 ≡ 1 (mod 2^127 - 1).
        let p = Big::from_hex("7fffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(mod_pow(&b(2), &b(127), &p), Big::one());
    }

    #[test]
    fn pow_modulus_one() {
        assert_eq!(mod_pow(&b(5), &b(3), &Big::one()), Big::zero());
    }

    #[test]
    fn inverse_roundtrip() {
        let m = b(1_000_000_007);
        for a in [1u64, 2, 3, 97, 123_456_789] {
            let inv = mod_inv(&b(a), &m).unwrap();
            assert_eq!(mod_mul(&b(a), &inv, &m), Big::one(), "a={a}");
        }
    }

    #[test]
    fn inverse_not_coprime() {
        assert!(mod_inv(&b(6), &b(9)).is_none());
        assert!(mod_inv(&b(0), &b(7)).is_none());
        assert!(mod_inv(&b(5), &Big::one()).is_none());
    }

    #[test]
    fn inverse_large() {
        let p = Big::from_hex("ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74")
            .unwrap();
        // p odd (not necessarily prime, but coprime with small a is likely);
        // verify the defining property when Some.
        let a = Big::from_hex("123456789abcdef").unwrap();
        if let Some(inv) = mod_inv(&a, &p) {
            assert_eq!(mod_mul(&a, &inv, &p), Big::one());
        }
    }
}
