//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! Used for ring positions, message digests under signatures, the HMAC
//! construction, and the keystream of the onion cipher.

use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl Digest {
    /// The big-endian bytes of a final hash state.
    fn from_state(state: &[u32; 8]) -> Digest {
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    /// Digest as a hex string.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.to_string()
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        compress_blocks(&mut self.state, &rest[..whole]);
        rest = &rest[whole..];
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Chainable [`update`](Self::update).
    #[must_use]
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    /// Finish and produce the digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        // padding: 0x80 then zeros until 56 mod 64, then the 8-byte
        // big-endian bit length; a tail past 55 bytes spills into a
        // second block
        let bit_len = self.total_len.wrapping_mul(8);
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let end = if self.buf_len >= 56 { 128 } else { 64 };
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..end]);
        Digest::from_state(&self.state)
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `state`:
/// with the SHA-NI kernel when the CPU has it, else with the portable
/// [`Sha256::compress`]. Both give the same state for every input.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, blocks) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        Sha256::compress(state, block.try_into().expect("64-byte chunk"));
    }
}

/// The SHA-256 compression function on the x86 SHA extensions — the
/// crate's only unsafe code. It runs only after a runtime check has
/// found the instructions on this CPU; the portable compressor stays
/// the reference the tests hold it to.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Whether this CPU runs the kernel (the answer is cached by std).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")
    }

    /// Compress `blocks` into `state` and return true when this CPU has
    /// the SHA extensions; otherwise leave `state` alone and return false.
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just found SHA and SSE4.1 on this CPU at
        // run time; SSE2 is part of x86_64 and every SSE4.1 CPU has SSSE3
        // (the target feature `sse4.1` implies `ssse3`).
        unsafe { compress(state, blocks) };
        true
    }

    /// The kernel: four rounds per `sha256rnds2` pair, the message
    /// schedule from `sha256msg1`/`sha256msg2`.
    ///
    /// # Safety
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1. Every load and
    /// store stays inside `state`, `K` or a 64-byte chunk of `blocks`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // reverses the bytes of each 32-bit lane (big-endian words)
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // the round instruction takes the state as (a, b, e, f) and
        // (c, d, g, h), highest lane first
        let dcba = _mm_loadu_si128(state[..].as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        // four rounds on schedule words `w` (round group `i`)
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {
                let wk = _mm_add_epi32($w, _mm_loadu_si128(K[4 * $i..].as_ptr().cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            };
        }
        // the next four schedule words from the last sixteen, oldest
        // first: W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
        macro_rules! schedule4 {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                    $w3,
                )
            };
        }
        for block in blocks.chunks_exact(64) {
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block[..].as_ptr().cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block[16..].as_ptr().cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block[32..].as_ptr().cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block[48..].as_ptr().cast()), bswap);
            let (abef0, cdgh0) = (abef, cdgh);
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for g in [4, 8, 12] {
                w0 = schedule4!(w0, w1, w2, w3);
                rounds4!(w0, g);
                w1 = schedule4!(w1, w2, w3, w0);
                rounds4!(w1, g + 1);
                w2 = schedule4!(w2, w3, w0, w1);
                rounds4!(w2, g + 2);
                w3 = schedule4!(w3, w0, w1, w2);
                rounds4!(w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(
            state[..].as_mut_ptr().cast(),
            _mm_blend_epi16(feba, dchg, 0xF0),
        );
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// One-shot SHA-256.
#[must_use]
pub fn sha256(data: &[u8]) -> Digest {
    Sha256::new().chain(data).finalize()
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary_padding() {
        // 55, 56, 63, 64 byte messages exercise every padding branch
        for n in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x41u8; n];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {n}");
        }
    }

    /// Hex digests of m_n[i] = (31i + 7) mod 256 for n = 0..=130, from
    /// Python's `hashlib`.
    fn hashlib_lengths() -> Vec<(Vec<u8>, &'static str)> {
        let kat: Vec<&str> = include_str!("../testdata/sha256_lengths.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect();
        assert_eq!(kat.len(), 131);
        kat.into_iter()
            .enumerate()
            .map(|(n, want)| ((0..n).map(|i| (i * 31 + 7) as u8).collect(), want))
            .collect()
    }

    /// SHA-256 on the portable compressor alone, with its own padding:
    /// the oracle for the dispatched path.
    fn portable_sha256(msg: &[u8]) -> Digest {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            Sha256::compress(&mut state, block.try_into().unwrap());
        }
        Digest::from_state(&state)
    }

    /// Every message length from 0 to 130 bytes: one- and two-block
    /// padding, every split of the length field across the boundary,
    /// and a third block.
    #[test]
    fn lengths_0_to_130_match_hashlib() {
        for (msg, want) in hashlib_lengths() {
            assert_eq!(sha256(&msg).to_hex(), want, "length {}", msg.len());
        }
    }

    #[test]
    fn lengths_0_to_130_match_hashlib_on_portable_path() {
        for (msg, want) in hashlib_lengths() {
            assert_eq!(portable_sha256(&msg).to_hex(), want, "length {}", msg.len());
        }
    }

    /// The dispatched compressor (the SHA-NI kernel on a CPU that has
    /// it) against the portable one, on seeded random states and runs of
    /// one to four blocks.
    #[test]
    fn dispatch_matches_portable_compressor() {
        let mut rng = StdRng::seed_from_u64(0x7368_616e);
        for _ in 0..20_000 {
            let state: [u32; 8] = rng.gen();
            let mut blocks = vec![0u8; 64 * rng.gen_range(1..=4usize)];
            rng.fill(&mut blocks[..]);
            let mut want = state;
            for block in blocks.chunks_exact(64) {
                Sha256::compress(&mut want, block.try_into().unwrap());
            }
            let mut got = state;
            compress_blocks(&mut got, &blocks);
            assert_eq!(got, want, "state {state:08x?}, blocks {blocks:02x?}");
        }
    }

    /// The kernel runs exactly when the CPU check passes, and otherwise
    /// leaves the state for the portable path.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernel_runs_exactly_when_detected() {
        let block: Vec<u8> = (0..64u8).collect();
        let mut want = H0;
        Sha256::compress(&mut want, block[..].try_into().unwrap());
        let mut got = H0;
        let ran = shani::try_compress(&mut got, &block);
        assert_eq!(ran, shani::available());
        assert_eq!(got, if ran { want } else { H0 });
    }

    /// One message fed through `update` at random split points equals
    /// the one-shot digest, and both equal the portable oracle.
    #[test]
    fn random_splits_equal_oneshot() {
        let mut rng = StdRng::seed_from_u64(0x7370_6c74);
        let mut msg = vec![0u8; 1000];
        rng.fill(&mut msg[..]);
        let want = sha256(&msg);
        assert_eq!(want, portable_sha256(&msg));
        for _ in 0..500 {
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..=msg.len()))
                .collect();
            cuts.push(msg.len());
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in &cuts {
                h.update(&msg[at..*cut]);
                at = *cut;
            }
            assert_eq!(h.finalize(), want, "cuts {cuts:?}");
        }
    }

    #[test]
    fn digest_display_roundtrip() {
        let d = sha256(b"octopus");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
