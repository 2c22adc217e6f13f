//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! Used by the mainchain for block ids, transaction ids, sighashes,
//! proof-of-work and the sidechain-transactions commitment tree, and as
//! the byte-level collision-resistant hash of the paper's Definition
//! 2.1. Also provides [`sha256d`] (the Bitcoin-style double hash) and a
//! counter-mode [`Prg`] for deterministic parameter generation.
//!
//! # Two kernels, one function
//!
//! Every hash in this module runs through one compression function over
//! a run of whole 64-byte blocks, which has two kernels:
//!
//! * **`sha-ni`** — the x86-64 SHA extensions (`SHA256RNDS2`,
//!   `SHA256MSG1`, `SHA256MSG2`), two rounds an instruction, with the
//!   state held in two registers across every block of the run;
//! * **`portable`** — the FIPS 180-4 rounds in plain Rust, for CPUs
//!   without the extensions and other targets. It is also the oracle the
//!   tests hold the hardware kernel to.
//!
//! The choice is made per call from what the CPU reports
//! (`is_x86_feature_detected!` for `sha`, `sse2`, `ssse3` and `sse4.1`,
//! which std caches), never from an option; [`kernel`] names the one in
//! use so a reported figure can say which produced it. Both compute the
//! same function, so every digest is bit-identical across hosts.
//!
//! The hardware kernel is a safe `#[target_feature]` function: its
//! intrinsics take and return values, words go in through
//! `u32::from_be_bytes` and come back through `_mm_extract_epi32`, and
//! no raw pointer is formed. Calling it is the one `unsafe` block in this
//! crate (`#![deny(unsafe_code)]`, allowed on that one function), made
//! right after an assertion that the CPU reports every feature it
//! enables — without them the instructions would be undefined.
//!
//! [`opcount`](crate::opcount) counts one SHA-256 block per compression
//! on either kernel: whole blocks go to the kernel in one call, and
//! `finalize` pads with one call of at most two blocks, so a message of
//! n bytes costs ⌊(n + 8) / 64⌋ + 1 blocks whichever kernel runs.

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
///
/// # Examples
///
/// ```
/// use zendoo_primitives::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            Self::compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        let (blocks, rest) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            Self::compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Completes the hash, producing the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros up to 56 mod 64, then the bit length: one or two
        // blocks, absorbed in one call.
        let pad_len = if self.buffer_len < 56 { 64 } else { 128 } - self.buffer_len;
        let mut pad = [0u8; 128];
        pad[0] = 0x80;
        pad[pad_len - 8..pad_len].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len]);
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Runs the compression function over `blocks` on the kernel
    /// [`kernel`] names, counting one SHA-256 block each.
    fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        crate::opcount::sha_blocks(blocks.len() as u64);
        (selected().1)(state, blocks);
    }
}

/// A compression kernel: the state after `blocks`, one after another.
type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

/// The kernel this CPU runs, by name and function: one choice, so the
/// name a figure reports is the kernel that produced it.
fn selected() -> (&'static str, Kernel) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        return ("sha-ni", sha_ni::compress);
    }
    ("portable", compress_portable)
}

/// The compression kernel this CPU runs: `"sha-ni"` when it reports the
/// x86-64 SHA extensions, `"portable"` otherwise. Digests do not depend
/// on it; timings do.
pub fn kernel() -> &'static str {
    selected().0
}

/// The FIPS 180-4 rounds in plain Rust: the kernel for CPUs without the
/// SHA extensions, and the oracle the hardware kernel is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
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
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The x86-64 SHA-extensions kernel.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU reports every feature [`rounds`] enables
    /// (std caches the answer after the first query).
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` into `state` with the SHA extensions.
    ///
    /// # Panics
    ///
    /// If this CPU does not report every feature [`rounds`] enables;
    /// [`selected`](super::selected) checks [`available`] first.
    #[allow(unsafe_code)]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        assert!(available(), "this CPU does not report the SHA extensions");
        // SAFETY: `rounds` is safe apart from its target features, and
        // the assertion above has seen this CPU report every one of them.
        unsafe { rounds(state, blocks) }
    }

    /// Compresses `blocks` into `state`, keeping the state in two
    /// registers from the first block to the last.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Four rounds from message words `w` (lane 0 first): two
        // `SHA256RNDS2`, each taking two words plus constants.
        macro_rules! rounds4 {
            ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
                let k = _mm_set_epi32(
                    K[4 * $i + 3] as i32,
                    K[4 * $i + 2] as i32,
                    K[4 * $i + 1] as i32,
                    K[4 * $i] as i32,
                );
                let wk = _mm_add_epi32($w, k);
                $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
                $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // Words 4i..4i + 4 of a block, lane 0 first.
        let words = |block: &[u8; 64], i: usize| {
            let w = |j: usize| {
                let at = 16 * i + 4 * j;
                u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
            };
            _mm_set_epi32(w(3), w(2), w(1), w(0))
        };
        // The next four schedule words from the last sixteen.
        let schedule = |w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i| {
            let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            _mm_sha256msg2_epu32(t, w3)
        };

        // The instructions want the state as (a, b, e, f) and (c, d, g, h).
        let s = |i: usize| state[i] as i32;
        let dcba = _mm_set_epi32(s(3), s(2), s(1), s(0));
        let hgfe = _mm_set_epi32(s(7), s(6), s(5), s(4));
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = words(block, 0);
            let mut w1 = words(block, 1);
            let mut w2 = words(block, 2);
            let mut w3 = words(block, 3);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgfe) as u32,
            _mm_extract_epi32::<1>(hgfe) as u32,
            _mm_extract_epi32::<2>(hgfe) as u32,
            _mm_extract_epi32::<3>(hgfe) as u32,
        ];
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Bitcoin-style double SHA-256.
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    sha256(&sha256(data))
}

/// One-shot SHA-256 over the concatenation of several segments, with
/// length framing so that segment boundaries cannot be confused.
pub fn sha256_tagged(tag: &str, segments: &[&[u8]]) -> [u8; 32] {
    let mut hasher = TaggedSha256::new(tag);
    for segment in segments {
        hasher.segment(segment.len() as u64);
        hasher.update(segment);
    }
    hasher.finalize()
}

/// [`sha256_tagged`] written a piece at a time: each segment's length
/// is declared up front, then its bytes arrive in any number of
/// [`update`](TaggedSha256::update)s. The digest equals
/// `sha256_tagged(tag, segments)` over the same segments, so a large
/// segment can be hashed without ever holding it whole.
///
/// # Panics
///
/// When a segment receives more or fewer bytes than it declared, at
/// the `update`, `segment` or `finalize` call that shows it.
#[derive(Clone, Debug)]
pub struct TaggedSha256 {
    hasher: Sha256,
    /// Bytes the open segment still expects.
    remaining: u64,
}

impl TaggedSha256 {
    /// Starts a tagged hash.
    pub fn new(tag: &str) -> Self {
        let mut hasher = TaggedSha256 {
            hasher: Sha256::new(),
            remaining: 0,
        };
        hasher.segment(tag.len() as u64);
        hasher.update(tag.as_bytes());
        hasher
    }

    /// Opens the next segment, `len` bytes long.
    pub fn segment(&mut self, len: u64) {
        assert_eq!(self.remaining, 0, "the previous segment is short");
        self.hasher.update(&len.to_be_bytes());
        self.remaining = len;
    }

    /// Absorbs the next bytes of the open segment.
    pub fn update(&mut self, bytes: &[u8]) {
        self.remaining = self
            .remaining
            .checked_sub(bytes.len() as u64)
            .expect("bytes beyond the declared segment length");
        self.hasher.update(bytes);
    }

    /// The digest.
    pub fn finalize(self) -> [u8; 32] {
        assert_eq!(self.remaining, 0, "the last segment is short");
        self.hasher.finalize()
    }
}

/// A deterministic counter-mode SHA-256 pseudo-random generator.
///
/// Used to derive Poseidon round constants and reproducible workload
/// randomness. Not a CSPRNG for key material; key generation uses
/// [`rand`] RNGs instead.
#[derive(Clone, Debug)]
pub struct Prg {
    seed: [u8; 32],
    counter: u64,
    pool: Vec<u8>,
}

impl Prg {
    /// Creates a generator whose stream is a pure function of `domain`.
    pub fn new(domain: &str) -> Self {
        Prg {
            seed: sha256_tagged("zendoo/prg", &[domain.as_bytes()]),
            counter: 0,
            pool: Vec::new(),
        }
    }

    /// Fills `out` with the next bytes of the stream.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut written = 0;
        while written < out.len() {
            if self.pool.is_empty() {
                let mut hasher = Sha256::new();
                hasher.update(&self.seed);
                hasher.update(&self.counter.to_be_bytes());
                self.pool = hasher.finalize().to_vec();
                self.counter += 1;
            }
            let take = self.pool.len().min(out.len() - written);
            out[written..written + take].copy_from_slice(&self.pool[..take]);
            self.pool.drain(..take);
            written += take;
        }
    }

    /// Returns the next 32 bytes of the stream.
    pub fn next_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill(&mut out);
        out
    }

    /// Returns the next `u64` of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut out = [0u8; 8];
        self.fill(&mut out);
        u64::from_be_bytes(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    /// A reference `finalize` that pads one byte at a time through
    /// `update`: 0x80, zeros until 56 bytes of a block are filled, then
    /// the bit length.
    fn finalize_bytewise(mut hasher: Sha256) -> [u8; 32] {
        let bit_len = hasher.total_len.wrapping_mul(8);
        hasher.update(&[0x80]);
        while hasher.buffer_len != 56 {
            hasher.update(&[0x00]);
        }
        hasher.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (i, word) in hasher.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn every_length_and_split_pads_as_byte_by_byte_padding_does() {
        let data: Vec<u8> = (0..=255u8).cycle().take(256).collect();
        for len in 0..=256 {
            let message = &data[..len];
            let mut whole = Sha256::new();
            whole.update(message);
            let expected = finalize_bytewise(whole);
            assert_eq!(sha256(message), expected, "length {len}");
            for split in [0usize, 1, 55, 56, 63, 64, 65, 119, 120] {
                let split = split.min(len);
                let mut hasher = Sha256::new();
                hasher.update(&message[..split]);
                hasher.update(&message[split..]);
                assert_eq!(
                    hasher.finalize(),
                    expected,
                    "length {len}, split at {split}"
                );
            }
        }
    }

    #[test]
    fn both_kernels_compress_alike() {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            let mut prg = Prg::new("sha256/kernels");
            let mut state = [0u32; 8];
            for word in &mut state {
                *word = prg.next_u64() as u32;
            }
            let mut blocks = vec![[0u8; 64]; 2_000];
            for block in &mut blocks {
                prg.fill(block);
            }
            let (mut portable, mut hardware) = (state, state);
            for (i, block) in blocks.iter().enumerate() {
                compress_portable(&mut portable, std::slice::from_ref(block));
                sha_ni::compress(&mut hardware, std::slice::from_ref(block));
                assert_eq!(hardware, portable, "block {i}");
            }
            let mut run = state;
            sha_ni::compress(&mut run, &blocks);
            assert_eq!(run, portable, "one call over every block");
            return;
        }
        eprintln!("no SHA extensions on this CPU: only the portable kernel runs");
    }

    #[test]
    fn the_cpu_s_sha_extensions_are_used_when_it_reports_them() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            assert_eq!(kernel(), "sha-ni");
            return;
        }
        assert_eq!(kernel(), "portable");
    }

    #[test]
    fn sha256d_is_double_hash() {
        assert_eq!(sha256d(b"zendoo"), sha256(&sha256(b"zendoo")));
    }

    #[test]
    fn tagged_hash_separates_boundaries() {
        let a = sha256_tagged("t", &[b"ab", b"c"]);
        let b = sha256_tagged("t", &[b"a", b"bc"]);
        assert_ne!(a, b, "length framing must distinguish segmentations");
        assert_ne!(sha256_tagged("t1", &[b"x"]), sha256_tagged("t2", &[b"x"]));
    }

    /// The framing written out by hand: a 64-bit length before the tag
    /// and before each segment. A segment fed in pieces hashes as one.
    #[test]
    fn tagged_hash_frames_each_segment_with_its_length() {
        let mut framed = Vec::new();
        for part in [&b"tag"[..], b"", b"hello world"] {
            framed.extend_from_slice(&(part.len() as u64).to_be_bytes());
            framed.extend_from_slice(part);
        }
        let one_shot = sha256_tagged("tag", &[b"", b"hello world"]);
        assert_eq!(one_shot, sha256(&framed));
        let mut pieces = TaggedSha256::new("tag");
        pieces.segment(0);
        pieces.segment(11);
        for piece in [&b"hel"[..], b"", b"lo wor", b"ld"] {
            pieces.update(piece);
        }
        assert_eq!(pieces.finalize(), one_shot);
    }

    #[test]
    #[should_panic(expected = "beyond the declared segment length")]
    fn a_tagged_segment_refuses_bytes_beyond_its_length() {
        let mut hasher = TaggedSha256::new("tag");
        hasher.segment(2);
        hasher.update(b"abc");
    }

    #[test]
    #[should_panic(expected = "the last segment is short")]
    fn a_tagged_hash_refuses_a_short_last_segment() {
        let mut hasher = TaggedSha256::new("tag");
        hasher.segment(2);
        hasher.update(b"a");
        hasher.finalize();
    }

    #[test]
    fn prg_is_deterministic_and_domain_separated() {
        let mut a = Prg::new("domain-a");
        let mut b = Prg::new("domain-a");
        let mut c = Prg::new("domain-b");
        assert_eq!(a.next_bytes32(), b.next_bytes32());
        assert_ne!(b.next_bytes32(), c.next_bytes32());
        let mut buf = [0u8; 100];
        a.fill(&mut buf);
        assert_ne!(buf, [0u8; 100]);
    }
}
