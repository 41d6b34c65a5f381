//! Arbitrary-precision unsigned and modular arithmetic.
//!
//! This crate is the numeric substrate for the Price $heriff's
//! privacy-preserving *k*-means protocol (paper §3.8 / §10.4): additively
//! homomorphic ElGamal needs modular exponentiation over a prime field whose
//! size is configurable from test-sized 64-bit primes up to 2048-bit MODP
//! groups. It is dependency-free (only `rand` for sampling). [`Big`] does
//! the general-purpose arithmetic with schoolbook multiplication and Knuth
//! Algorithm D division; exponentiation, the cost that dominates the
//! protocol, runs on [`Montgomery`] multiplication over fixed-width `u64`
//! limbs with a 4-bit window, and allocates nothing per multiply.
//!
//! The central type is [`Big`], an unsigned big integer stored as
//! little-endian `u32` limbs. Modular helpers and the [`Montgomery`] context
//! live in [`modular`], primality testing and prime generation in [`prime`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod big;
pub mod modular;
pub mod prime;

pub use big::Big;
pub use modular::{mod_add, mod_inv, mod_mul, mod_pow, mod_sub, Montgomery};
pub use prime::{gen_prime, gen_safe_prime, is_prime};
