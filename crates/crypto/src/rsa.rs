//! Toy RSA signatures with a 64-bit modulus.
//!
//! The Octopus protocols require genuine digital-signature *semantics*:
//! nodes sign routing tables, the CA verifies third-party proofs, and
//! signatures from revoked certificates must still verify against the old
//! public key (non-repudiation). We implement textbook RSA over a 64-bit
//! modulus: prime generation with Miller–Rabin, `e = 65537`,
//! `sign = H(m)^d mod n`, `verify: sig^e mod n == H(m) mod n`.
//!
//! 64-bit RSA is trivially breakable; the point is functional fidelity,
//! not security (see the crate-level warning and DESIGN.md). The
//! simulators account bandwidth using the paper's 40-byte ECDSA figure.

use std::fmt;

use rand::Rng;

use crate::sha256::sha256;

/// Public verification key `(n, e)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Modulus.
    pub n: u64,
    /// Public exponent.
    pub e: u64,
}

/// An RSA signature (a single residue mod n).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub u64);

/// A signing/verification key pair.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    d: u64,
}

/// Errors from signature verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature did not verify against the message and key.
    BadSignature,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // never print the private exponent
        write!(f, "KeyPair({:?})", self.public)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey(n={:x}, e={:x})", self.n, self.e)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({:016x})", self.0)
    }
}

/// Montgomery arithmetic modulo an odd `n` with `R = 2^64`.
///
/// Residues live in Montgomery form `x·R mod n`; a product is reduced
/// with one extra 64×64→128 multiply and a conditional add instead of
/// a 128-bit division. Every residue is kept fully reduced (`< n`), so
/// comparisons in Montgomery form are exact.
struct Mont {
    n: u64,
    /// `n⁻¹ mod 2^64`.
    n_inv: u64,
    /// `R mod n`: the Montgomery form of 1.
    one: u64,
}

impl Mont {
    fn new(n: u64) -> Self {
        debug_assert!(n & 1 == 1, "Montgomery modulus must be odd");
        // Newton iteration: an odd n is its own inverse mod 8, and each
        // step doubles the number of correct low bits (3→6→…→96).
        let mut n_inv = n;
        for _ in 0..5 {
            n_inv = n_inv.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(n_inv)));
        }
        Mont {
            n,
            n_inv,
            one: n.wrapping_neg() % n,
        }
    }

    /// `t·R⁻¹ mod n` for `t < n·R`. With `m = t·n⁻¹ mod R`, `m·n` and
    /// `t` agree in their low 64 bits, so `(t − m·n)/R` is the difference
    /// of the high halves, which lies in `(−n, n)`.
    fn reduce(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.n_inv);
        let mn_hi = ((u128::from(m) * u128::from(self.n)) >> 64) as u64;
        let (r, borrow) = ((t >> 64) as u64).overflowing_sub(mn_hi);
        if borrow {
            r.wrapping_add(self.n)
        } else {
            r
        }
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce(u128::from(a) * u128::from(b))
    }

    /// Montgomery form of any `x` (`x ≥ n` allowed).
    fn to_mont(&self, x: u64) -> u64 {
        ((u128::from(x) << 64) % u128::from(self.n)) as u64
    }

    /// `base^exp` with `base` and the result in Montgomery form.
    fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        let mut acc = self.one;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }
}

/// `base^exp mod m` for odd `m` (every RSA modulus and every
/// Miller–Rabin candidate past trial division is odd).
fn powmod(base: u64, exp: u64, m: u64) -> u64 {
    let mont = Mont::new(m);
    // reducing x·R once more leaves x
    mont.reduce(u128::from(mont.pow(mont.to_mont(base), exp)))
}

/// Deterministic Miller–Rabin, exact for all u64 with these witnesses.
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n % p == 0 {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d % 2 == 0 {
        d /= 2;
        r += 1;
    }
    let mont = Mont::new(n);
    let minus_one = n - mont.one; // Montgomery form of n − 1
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mont.pow(mont.to_mont(a), d);
        if x == mont.one || x == minus_one {
            continue;
        }
        for _ in 0..r - 1 {
            x = mont.mul(x, x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

fn modinv(a: u64, m: u64) -> Option<u64> {
    let (g, x, _) = egcd(a as i128, m as i128);
    if g != 1 {
        None
    } else {
        Some(((x % m as i128 + m as i128) % m as i128) as u64)
    }
}

fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> u64 {
    let mut p: u64 = rng.gen_range(0..1u64 << (bits - 1)) | (1 << (bits - 1)) | 1;
    // ensure p-1 not divisible by 65537 so e is invertible
    while !is_prime(p) || (p - 1) % 65537 == 0 {
        p = rng.gen_range(0..1u64 << (bits - 1)) | (1 << (bits - 1)) | 1;
    }
    p
}

impl KeyPair {
    /// Generate a fresh key pair with two 32-bit primes.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let p = random_prime(rng, 32);
            let q = random_prime(rng, 32);
            if p == q {
                continue;
            }
            let n = p * q; // fits: both < 2^32
            let phi = (p - 1) * (q - 1);
            let e = 65537u64;
            let Some(d) = modinv(e, phi) else { continue };
            return KeyPair {
                public: PublicKey { n, e },
                d,
            };
        }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a message: `H(m)^d mod n` where `H` is SHA-256 truncated into
    /// the modulus.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let h = digest_residue(message, self.public.n);
        Signature(powmod(h, self.d, self.public.n))
    }
}

impl PublicKey {
    /// Verify `sig` over `message`.
    ///
    /// # Errors
    /// Returns [`SignatureError::BadSignature`] when verification fails.
    pub fn verify(&self, message: &[u8], sig: Signature) -> Result<(), SignatureError> {
        let h = digest_residue(message, self.n);
        if powmod(sig.0, self.e, self.n) == h {
            Ok(())
        } else {
            Err(SignatureError::BadSignature)
        }
    }
}

fn digest_residue(message: &[u8], n: u64) -> u64 {
    let d = sha256(message);
    let x = u64::from_be_bytes(d.0[..8].try_into().expect("32-byte digest"));
    x % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference square-and-multiply with a 128-bit `%` per product: the
    /// oracle the Montgomery path is checked against. Any modulus ≥ 1.
    fn powmod_ref(mut base: u64, mut exp: u64, m: u64) -> u64 {
        let mulmod = |a: u64, b: u64| ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64;
        let mut acc = 1u64 % m;
        base %= m;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mulmod(acc, base);
            }
            base = mulmod(base, base);
            exp >>= 1;
        }
        acc
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(65537));
        assert!(is_prime(0xFFFF_FFFF_FFFF_FFC5)); // largest u64 prime
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(65536));
        assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn powmod_edges() {
        // powmod takes odd moduli only; the reference covers even ones
        assert_eq!(powmod_ref(2, 10, 1_000_000), 1024);
        assert_eq!(powmod(2, 10, 1_000_001), 1024);
        assert_eq!(powmod(0, 0, 7), 1);
        assert_eq!(powmod(5, 0, 7), 1);
        // (m+1)^2 ≡ 1 (mod m): exercises the 128-bit intermediate product
        assert_eq!(powmod(u64::MAX - 1, 2, u64::MAX - 2), 1);
    }

    #[test]
    fn montgomery_powmod_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x6d6f_6e74);
        let mut moduli: Vec<u64> = vec![1, 3, 5, 7, 65537, u64::MAX, u64::MAX - 2];
        // odd moduli just below 2^64, where the reduction's high half is
        // largest, plus RSA-shaped and arbitrary odd moduli
        moduli.extend((0..32).map(|i| u64::MAX - 2 * i - 2 * rng.gen_range(0..1u64 << 20)));
        moduli.extend((0..8).map(|_| KeyPair::generate(&mut rng).public().n));
        moduli.extend((0..64).map(|_| rng.gen::<u64>() | 1));
        for &n in &moduli {
            let mut bases = vec![0, 1, 2, n - 1, n, n.wrapping_add(1), u64::MAX];
            bases.extend((0..6).map(|_| rng.gen::<u64>()));
            bases.extend((0..6).map(|_| rng.gen_range(0..n)));
            let mut exps = vec![0, 1, 2, 3, 65537, u64::MAX];
            exps.extend((0..6).map(|_| rng.gen::<u64>()));
            for &b in &bases {
                for &e in &exps {
                    assert_eq!(powmod(b, e, n), powmod_ref(b, e, n), "{b}^{e} mod {n}");
                }
            }
        }
    }

    #[test]
    fn primality_matches_reference_witness_test() {
        let mr_ref = |n: u64| -> bool {
            if n < 2 || (n > 2 && n % 2 == 0) {
                return n == 2;
            }
            let (mut d, mut r) = (n - 1, 0u32);
            while d % 2 == 0 {
                d /= 2;
                r += 1;
            }
            [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
                .iter()
                .filter(|&&a| a % n != 0)
                .all(|&a| {
                    let mut x = powmod_ref(a, d, n);
                    if x == 1 || x == n - 1 {
                        return true;
                    }
                    (1..r).any(|_| {
                        x = powmod_ref(x, 2, n);
                        x == n - 1
                    })
                })
        };
        let mut rng = StdRng::seed_from_u64(0x7072_696d);
        let candidates = (0..2000u64)
            .chain((0..2000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..40)))
            .chain((0..64).map(|i| u64::MAX - i));
        for n in candidates {
            assert_eq!(is_prime(n), mr_ref(n), "n = {n}");
        }
    }

    /// Signatures for fixed seeded keys, pinned before the Montgomery
    /// kernel replaced the 128-bit-division one: key generation and
    /// signing must not drift, or every simulated report would change.
    #[test]
    fn pinned_sign_known_answers() {
        let msgs: [&[u8]; 3] = [b"", b"octopus routing table", &[0xA5; 130]];
        let pinned: [(u64, u64, u64, [u64; 3]); 3] = [
            (
                11,
                0x590b_e258_a8a3_b0df,
                0x0552_ce8f_483d_8d21,
                [
                    0x0936_0764_4ea2_e18e,
                    0x1098_7f01_d3e3_c3f8,
                    0x2380_7847_eaca_99cd,
                ],
            ),
            (
                12,
                0x933e_4d7d_18c8_e009,
                0x0b0a_ea1e_b160_9a8d,
                [
                    0x7ae3_ea95_27c1_54e3,
                    0x5cbf_73d0_84c3_ed66,
                    0x807a_5730_4f75_2838,
                ],
            ),
            (
                13,
                0xa03d_c12f_6af8_a0a3,
                0x360b_9e14_2e3b_fdc1,
                [
                    0x0b60_2710_de51_1b44,
                    0x2897_0c6a_6667_44d0,
                    0x8d9d_4a99_ac79_23ec,
                ],
            ),
        ];
        for (seed, n, d, sigs) in pinned {
            let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed));
            assert_eq!((kp.public().n, kp.d), (n, d), "key for seed {seed}");
            for (m, want) in msgs.iter().zip(sigs) {
                let sig = kp.sign(m);
                assert_eq!(sig, Signature(want), "seed {seed}, {} bytes", m.len());
                assert!(kp.public().verify(m, sig).is_ok());
            }
        }
    }

    #[test]
    fn modinv_inverse() {
        let inv = modinv(3, 7).unwrap();
        assert_eq!((3 * inv) % 7, 1);
        assert_eq!(modinv(2, 4), None);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"routing table v1");
        assert!(kp.public().verify(b"routing table v1", sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"honest successor list");
        assert_eq!(
            kp.public().verify(b"manipulated successor list", sig),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp1 = KeyPair::generate(&mut rng);
        let kp2 = KeyPair::generate(&mut rng);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", sig).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"msg");
        assert!(kp.public().verify(b"msg", Signature(sig.0 ^ 1)).is_err());
    }

    #[test]
    fn many_keypairs_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..25u32 {
            let kp = KeyPair::generate(&mut rng);
            let msg = i.to_be_bytes();
            let sig = kp.sign(&msg);
            assert!(kp.public().verify(&msg, sig).is_ok(), "keypair {i}");
        }
    }
}
