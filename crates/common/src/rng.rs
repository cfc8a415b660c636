//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator (workload generation, random
//! replacement, the NS allocation policy's 80/20 split, …) draws from a
//! [`SimRng`] derived from a master seed plus a component label. Identical
//! configurations therefore produce bit-identical simulations on every
//! platform, which the integration tests assert.
//!
//! The generator is a self-contained ChaCha12 stream cipher in counter mode
//! (no external crates, so the workspace builds without network access); the
//! 12-round variant is the same safety/performance point `rand_chacha`
//! defaults to.

/// Number of ChaCha double-rounds (12 rounds total).
const DOUBLE_ROUNDS: usize = 6;

/// Keystream bytes produced per refill: four consecutive ChaCha12 blocks.
const BUF_BYTES: usize = 256;

/// Four consecutive ChaCha12 blocks, starting at `input`'s block counter:
/// block *j* of `out` is the block for counter + *j*.
///
/// On x86-64 this dispatches to the SSE2 column-parallel implementation
/// (SSE2 is part of the x86-64 baseline); everywhere else the portable
/// scalar version runs once per block. Both produce bit-identical
/// keystreams — asserted by a test that runs the scalar reference against
/// the dispatched version.
fn chacha12_blocks4(input: &[u32; 16], out: &mut [u8; BUF_BYTES]) {
    #[cfg(target_arch = "x86_64")]
    chacha12_blocks4_sse2(input, out);
    #[cfg(not(target_arch = "x86_64"))]
    for (j, block) in out.chunks_exact_mut(64).enumerate() {
        chacha12_block_scalar(
            &counter_plus(input, j as u32),
            block.try_into().expect("64 bytes"),
        );
    }
}

/// `state` with its 64-bit block counter (words 12/13) advanced by `n`.
fn counter_plus(state: &[u32; 16], n: u32) -> [u32; 16] {
    let mut s = *state;
    let (lo, carry) = s[12].overflowing_add(n);
    s[12] = lo;
    s[13] = s[13].wrapping_add(u32::from(carry));
    s
}

/// Column-parallel ChaCha12 over four blocks: register *i* holds state word
/// *i* of all four blocks (lane *j* = block *j*, each lane with its own
/// word-12 → 13 counter carry), so every quarter-round is the scalar one on
/// four blocks at once and no lane shuffles are needed. A 4×4 transpose per
/// group of four words turns lanes back into blocks on the way out.
/// Wrapping adds, xors and rotates are exact on every lane, so the
/// keystream matches the scalar version bit for bit.
#[cfg(target_arch = "x86_64")]
fn chacha12_blocks4_sse2(input: &[u32; 16], out: &mut [u8; BUF_BYTES]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_slli_epi32,
        _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    // SAFETY: SSE2 is unconditionally available on x86-64. The stores are
    // the unaligned variant, at 16-byte offsets `64 * j + 16 * g` (j, g < 4)
    // inside the 256 bytes of `out`.
    unsafe {
        macro_rules! rotl {
            ($x:expr, $n:literal) => {
                _mm_or_si128(_mm_slli_epi32($x, $n), _mm_srli_epi32($x, 32 - $n))
            };
        }
        macro_rules! qround {
            ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
                $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
                $x[$d] = rotl!(_mm_xor_si128($x[$d], $x[$a]), 16);
                $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
                $x[$b] = rotl!(_mm_xor_si128($x[$b], $x[$c]), 12);
                $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
                $x[$d] = rotl!(_mm_xor_si128($x[$d], $x[$a]), 8);
                $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
                $x[$b] = rotl!(_mm_xor_si128($x[$b], $x[$c]), 7);
            };
        }

        let blocks: [[u32; 16]; 4] = std::array::from_fn(|j| counter_plus(input, j as u32));
        let lane = |j: usize, w: usize| blocks[j][w] as i32;
        let mut x: [__m128i; 16] = std::array::from_fn(|w| match w {
            12 | 13 => _mm_set_epi32(lane(3, w), lane(2, w), lane(1, w), lane(0, w)),
            _ => _mm_set1_epi32(input[w] as i32),
        });
        let x0 = x;

        for _ in 0..DOUBLE_ROUNDS {
            // Column round.
            qround!(x, 0, 4, 8, 12);
            qround!(x, 1, 5, 9, 13);
            qround!(x, 2, 6, 10, 14);
            qround!(x, 3, 7, 11, 15);
            // Diagonal round.
            qround!(x, 0, 5, 10, 15);
            qround!(x, 1, 6, 11, 12);
            qround!(x, 2, 7, 8, 13);
            qround!(x, 3, 4, 9, 14);
        }

        let q = out.as_mut_ptr().cast::<__m128i>();
        for g in 0..4 {
            let w = 4 * g;
            let [a, b, c, d] = std::array::from_fn(|i| _mm_add_epi32(x[w + i], x0[w + i]));
            // Transpose: row j of the result is words w..w+4 of block j.
            let ab_lo = _mm_unpacklo_epi32(a, b);
            let cd_lo = _mm_unpacklo_epi32(c, d);
            let ab_hi = _mm_unpackhi_epi32(a, b);
            let cd_hi = _mm_unpackhi_epi32(c, d);
            _mm_storeu_si128(q.add(g), _mm_unpacklo_epi64(ab_lo, cd_lo));
            _mm_storeu_si128(q.add(4 + g), _mm_unpackhi_epi64(ab_lo, cd_lo));
            _mm_storeu_si128(q.add(8 + g), _mm_unpacklo_epi64(ab_hi, cd_hi));
            _mm_storeu_si128(q.add(12 + g), _mm_unpackhi_epi64(ab_hi, cd_hi));
        }
    }
}

/// Portable scalar ChaCha12 — the reference the SIMD path is tested against,
/// and the implementation used on non-x86-64 targets.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn chacha12_block_scalar(input: &[u32; 16], out: &mut [u8; 64]) {
    #[inline(always)]
    fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }
    let mut x = *input;
    for _ in 0..DOUBLE_ROUNDS {
        // Column round.
        qr(&mut x, 0, 4, 8, 12);
        qr(&mut x, 1, 5, 9, 13);
        qr(&mut x, 2, 6, 10, 14);
        qr(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        qr(&mut x, 0, 5, 10, 15);
        qr(&mut x, 1, 6, 11, 12);
        qr(&mut x, 2, 7, 8, 13);
        qr(&mut x, 3, 4, 9, 14);
    }
    for (i, w) in x.iter().enumerate() {
        let sum = w.wrapping_add(input[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&sum.to_le_bytes());
    }
}

/// A deterministic RNG stream.
///
/// # Example
///
/// ```
/// use d2m_common::rng::SimRng;
///
/// let mut a = SimRng::from_label(42, "workload/canneal/node0");
/// let mut b = SimRng::from_label(42, "workload/canneal/node0");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    /// ChaCha key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter of the next refill (state words 12/13); the
    /// nonce words are always zero and the first four are constants, so
    /// neither is stored.
    counter: u64,
    buf: [u8; BUF_BYTES],
    /// Next unread byte in `buf`, always a multiple of 4; `BUF_BYTES` means
    /// the buffer is exhausted.
    pos: usize,
}

// Every trace-generator node and every D2M system holds one by value, and
// where glibc places heap chunks is sensitive to its size (EXPERIMENTS.md,
// "Heap-trim mode"): no larger than the one-block generator's 336 B.
const _: () = assert!(std::mem::size_of::<SimRng>() <= 336);

impl SimRng {
    /// Creates a stream from a raw 32-byte ChaCha key.
    pub fn from_seed(key: [u8; 32]) -> Self {
        Self {
            key: std::array::from_fn(|i| {
                u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
            }),
            counter: 0,
            buf: [0; BUF_BYTES],
            pos: BUF_BYTES,
        }
    }

    /// Derives a stream from a master seed and a component label.
    ///
    /// Distinct labels yield statistically independent streams; the same
    /// `(seed, label)` pair always yields the same stream.
    pub fn from_label(seed: u64, label: &str) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        // FNV-1a over the label fills the rest of the key deterministically.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        key[8..16].copy_from_slice(&h.to_le_bytes());
        let mut h2 = h.rotate_left(31) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in label.as_bytes().iter().rev() {
            h2 ^= *b as u64;
            h2 = h2.wrapping_mul(0x100_0000_01b5);
        }
        key[16..24].copy_from_slice(&h2.to_le_bytes());
        Self::from_seed(key)
    }

    /// The 16-word ChaCha input block for the next refill.
    fn block_input(&self) -> [u32; 16] {
        let mut s = [0u32; 16];
        // "expand 32-byte k"
        s[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        s[4..12].copy_from_slice(&self.key);
        s[12] = self.counter as u32;
        s[13] = (self.counter >> 32) as u32;
        s
    }

    fn refill(&mut self) {
        chacha12_blocks4(&self.block_input(), &mut self.buf);
        self.counter = self.counter.wrapping_add((BUF_BYTES / 64) as u64);
        self.pos = 0;
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.pos + 4 > BUF_BYTES {
            self.refill();
        }
        let v = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        );
        self.pos += 4;
        v
    }

    /// Next 64 uniformly random bits: the next two 32-bit words, low first.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let p = self.pos;
        if p + 8 <= BUF_BYTES {
            self.pos = p + 8;
            return u64::from_le_bytes(self.buf[p..p + 8].try_into().expect("8 bytes"));
        }
        // The two words straddle a refill (or the buffer is spent).
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform value in `[0, bound)` (unbiased via rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Widening-multiply rejection (Lemire): unbiased, one division in
        // the rare rejection path only.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw: true with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Zipf draw: `Zipf::new(n, s).sample(self)`. Builds the normalizer
    /// on every call; hot loops keep a [`Zipf`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        Zipf::new(n, s).sample(self)
    }
}

/// A Zipf-distributed sampler over ranks `[0, n)` with exponent `s`,
/// computed by inverse-transform over an approximate harmonic CDF (a
/// bounded-Pareto approach: good enough for locality shaping, cheap,
/// deterministic).
///
/// Small ranks are most likely — callers map rank 0 to the hottest item.
/// Building the sampler computes the normalizer once, so a draw costs one
/// uniform and one `powf` (or `exp` for `s ≈ 1`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Zipf {
    n: u64,
    /// Harmonic normalizer.
    hn: f64,
    /// `1 - s`, or 0 on the `s ≈ 1` (logarithmic) branch.
    e: f64,
    /// `1 / e`; unused on the logarithmic branch.
    inv_e: f64,
}

impl Zipf {
    /// A sampler over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0);
        if (s - 1.0).abs() < 1e-9 {
            return Self {
                n,
                hn: (n as f64).ln(),
                e: 0.0,
                inv_e: 0.0,
            };
        }
        let e = 1.0 - s;
        Self {
            n,
            hn: ((n as f64).powf(e) - 1.0) / e,
            e,
            inv_e: 1.0 / e,
        }
    }

    /// Draws one rank. A one-rank sampler returns 0 without consuming
    /// randomness.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.unit().max(1e-12);
        let x = if self.e == 0.0 {
            (u * self.hn).exp() - 1.0
        } else {
            (1.0 + u * self.hn * self.e).powf(self.inv_e) - 1.0
        };
        x.min(self.n as f64 - 1.0) as u64
    }
}

/// Derives the seed for one independent stream of a multi-run sweep from a
/// master seed and the stream index.
///
/// The sweep engine gives every (config, workload) pair of a grid its own
/// stream so cells are statistically independent, yet each cell's seed is a
/// pure function of `(master_seed, index)` — results are bit-identical no
/// matter how many worker threads execute the grid or in which order.
///
/// The mix is SplitMix64 over `master_seed + index`, whose output is
/// equidistributed over consecutive indices.
pub fn derive_stream_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = SimRng::from_label(7, "x");
        let mut b = SimRng::from_label(7, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = SimRng::from_label(7, "x");
        let mut b = SimRng::from_label(7, "y");
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_label(1, "x");
        let mut b = SimRng::from_label(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chacha_keystream_is_nontrivial() {
        // The raw block function must not be an identity or constant map,
        // and consecutive blocks must differ.
        let mut r = SimRng::from_seed([0u8; 32]);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    /// The reference keystream: scalar blocks for counters 0, 1, 2, …
    fn scalar_words(state: &[u32; 16], blocks: u32) -> Vec<u32> {
        let mut words = Vec::new();
        for j in 0..blocks {
            let mut block = [0u8; 64];
            chacha12_block_scalar(&counter_plus(state, j), &mut block);
            words.extend(
                block
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes"))),
            );
        }
        words
    }

    #[test]
    fn dispatched_block_matches_scalar_reference() {
        // The SIMD path must be a bit-identical drop-in: run both on a
        // spread of inputs, with block counters whose word-12 → 13 carry
        // falls before, inside and after the four blocks of one call.
        let mut state = [0u32; 16];
        for trial in 0u32..64 {
            for (i, w) in state.iter_mut().enumerate() {
                *w = (trial.wrapping_mul(0x9e37_79b9))
                    .wrapping_add((i as u32).wrapping_mul(0x85eb_ca6b));
            }
            state[12] = u32::MAX - (trial % 6);
            let mut got = [0u8; BUF_BYTES];
            chacha12_blocks4(&state, &mut got);
            let got: Vec<u32> = got
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
                .collect();
            assert_eq!(
                got,
                scalar_words(&state, 4),
                "keystream diverged on trial {trial}"
            );
        }
    }

    #[test]
    fn refills_across_the_counter_carry_match_scalar_reference() {
        // Three refills (twelve blocks) starting five blocks before the low
        // counter word wraps: the stream must be the scalar blocks in order.
        let mut r = SimRng::from_label(5, "carry");
        r.counter = u64::from(u32::MAX - 4);
        let start = r.block_input();
        let got: Vec<u32> = (0..3 * BUF_BYTES / 4).map(|_| r.next_u32()).collect();
        assert_eq!(got, scalar_words(&start, 12));
        assert_eq!(r.counter, (1 << 32) + 7);
    }

    fn fold(vals: &[u64]) -> u64 {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        crate::fnv1a_64(&bytes)
    }

    #[test]
    fn streams_match_pinned_values() {
        // Values captured from the one-block-per-refill generator this
        // replaced: the four-block buffer must not change a single output.
        let pins = [
            (
                1,
                "pin/a",
                0x4dd5_b4e0_f9e4_9c77,
                0xfd0a_6862_0b5e_22cc,
                0x5294_7547_899f_1ece,
            ),
            (
                2,
                "pin/b",
                0xb81a_013e_ad19_e6b5,
                0x01ce_05af_699a_ca2d,
                0x7ec7_8f71_d36a_94a3,
            ),
        ];
        for (seed, label, first, mixed, straddled) in pins {
            // The first 1024 outputs of interleaved next_u64/below/unit.
            let mut r = SimRng::from_label(seed, label);
            let v: Vec<u64> = (0..1024u64)
                .map(|i| match i % 3 {
                    0 => r.next_u64(),
                    1 => r.below(1 + i * 7919),
                    _ => r.unit().to_bits(),
                })
                .collect();
            assert_eq!(v[0], first, "{label}");
            assert_eq!(fold(&v), mixed, "{label}: next_u64/below/unit");
            // Odd runs of next_u32 before each run of next_u64, so 64-bit
            // reads straddle refills.
            let mut r = SimRng::from_label(seed, label);
            let mut v = Vec::new();
            for round in 0..6 {
                v.extend((0..2 * round + 1).map(|_| u64::from(r.next_u32())));
                v.extend((0..97).map(|_| r.next_u64()));
            }
            assert_eq!(fold(&v), straddled, "{label}: next_u32/next_u64");
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_label(1, "bound");
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::from_label(3, "uniform");
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.below(8) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = SimRng::from_label(1, "unit");
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let mut r = SimRng::from_label(1, "zipf");
        let n = 1000u64;
        let mut low = 0usize;
        for _ in 0..10_000 {
            let v = r.zipf(n, 0.9);
            assert!(v < n);
            if v < n / 10 {
                low += 1;
            }
        }
        // With s=0.9 the hottest decile should attract well over half the mass.
        assert!(low > 5_000, "zipf not skewed: {low}");
    }

    #[test]
    fn zipf_sample_matches_closed_form() {
        // Every draw against the closed-form inverse CDF driven by a twin
        // stream, on both branches (s = 1 and s != 1), including a
        // one-rank sampler that must not consume randomness.
        let mut rng = SimRng::from_label(9, "zipf-closed-form");
        let mut raw = SimRng::from_label(9, "zipf-closed-form");
        let pairs = [
            (1, 0.6),
            (16, 1.5),
            (380, 1.0),
            (70, 0.45),
            (8192, 1.2),
            (2, 1.0),
        ];
        let samplers = pairs.map(|(n, s)| Zipf::new(n, s));
        for step in 0..600 {
            let (n, s) = pairs[step % pairs.len()];
            let got = samplers[step % pairs.len()].sample(&mut rng);
            let want = if n == 1 {
                0
            } else {
                let u = raw.unit().max(1e-12);
                if s == 1.0 {
                    let hn = (n as f64).ln();
                    ((u * hn).exp() - 1.0).min(n as f64 - 1.0) as u64
                } else {
                    let e = 1.0 - s;
                    let hn = ((n as f64).powf(e) - 1.0) / e;
                    (((1.0 + u * hn * e).powf(1.0 / e) - 1.0).min(n as f64 - 1.0)) as u64
                }
            };
            assert_eq!(got, want, "draw diverged at step {step} (n={n}, s={s})");
        }
        assert_eq!(rng.next_u64(), raw.next_u64(), "same randomness consumed");
    }

    #[test]
    fn zipf_handles_degenerate_sizes() {
        let mut r = SimRng::from_label(1, "z1");
        assert_eq!(r.zipf(1, 1.0), 0);
        assert!(r.zipf(2, 1.0) < 2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_label(1, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_stream_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_stream_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "stream seeds must not collide");
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }
}
