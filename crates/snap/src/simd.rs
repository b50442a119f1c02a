//! Vector kernels for the two archive checksums, bit-exact with the
//! portable loop in the crate root and chosen at run time.
//!
//! [`Kernel::for_len`] returns a kernel only when the CPU has the features
//! both kernels need and the input is at least [`MIN_LEN`] bytes long;
//! otherwise the caller runs the portable loop, which stays the reference
//! the tests compare against. All of the crate's `unsafe` is in this
//! module.
//!
//! **CRC-32** (reflected, polynomial `0xEDB8_8320`) folds four 128-bit
//! accumulators 64 bytes a step with `PCLMULQDQ`, folds them into one,
//! then reduces 128 bits to 32 with a Barrett reduction. It takes and
//! returns the raw CRC state, as the portable loop does.
//!
//! **FNV-1a-64** (`h ← (h ⊕ b)·P`, `P = 2⁴⁰ + 0x1B3`) rests on three facts:
//!
//! 1. The low byte `ℓ` of `h` evolves on its own:
//!    `ℓ′ = ((ℓ ⊕ b)·0xB3) mod 2⁸`, since `P mod 2⁸ = 0xB3`.
//! 2. `b` touches only the low byte, so `h ⊕ b = h + δ` with
//!    `δ = (ℓ ⊕ b) − ℓ`, and `n` bytes take `h` to
//!    `Pⁿ·h + Σᵢ δᵢ·Pⁿ⁻ⁱ`: once the `ℓ` sequence is known, the rest is
//!    independent multiplies by constant weights.
//! 3. `ℓ`'s update is a T-function: `x·0xB3 = x + 2x + 16x + 32x + 128x`,
//!    so bit `k` of `ℓ′` is bit `k` of `x = ℓ ⊕ b` XORed with a term `gₖ`
//!    of the lower bits of `x` alone (the other four addends' bits at `k`
//!    and their carries into it). Bit plane `k` of the `ℓ` sequence is
//!    then the exclusive prefix XOR of `bₖ ⊕ gₖ`, seeded with bit `k` of
//!    the incoming `ℓ`, and the planes are solved from `k = 0` up.
//!
//! The FNV kernel takes 512 bytes a step: eight 64-byte blocks, one per
//! 64-bit lane of a ZMM register, so that lane `j` of plane vector `k`
//! holds bit `k` of every byte of block `j`. Planes come from an 8×8 bit
//! transpose per qword (`GF2P8AFFINEQB`), an 8×8 byte transpose per block
//! (`VPERMB`) and an 8×8 qword transpose across the blocks (`VPERMT2Q`);
//! the T-function's sums and carries are `VPTERNLOGQ`s; the prefix XOR is
//! six shift-XORs inside each lane plus a scan of the eight lane
//! parities; the same transposes in reverse bring `ℓ ∧ b` back to bytes,
//! and the weights `P⁵¹²⁻ⁱ` are applied as four signed 16-bit digits by
//! `VPDPWSSD`. Shorter tails go through the portable loop.

/// Bytes per FNV kernel step: eight 64-byte blocks, one per lane.
const STEP: usize = 512;

/// Shortest input the kernels take: one FNV step, below which they would
/// run nothing but the portable loop. Shorter inputs (ledger lines,
/// fingerprints, tags, small sections) stay on that loop, whose start-up
/// cost is nil.
pub(crate) const MIN_LEN: usize = STEP;

/// Bytes per step of a fused CRC + FNV pass: each kernel in turn reads a
/// stretch that is still in L1.
pub(crate) const CHUNK: usize = 16 * 1024;

/// Proof that this CPU runs both kernels: only [`Kernel::detect`] makes
/// one, and only after checking every feature the kernels are compiled
/// with.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Kernel(());

impl Kernel {
    /// The kernel, if this CPU has the features both checksums need.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn detect() -> Option<Kernel> {
        let ok = std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vnni")
            && std::is_x86_feature_detected!("avx512vbmi")
            && std::is_x86_feature_detected!("gfni");
        ok.then_some(Kernel(()))
    }

    /// No kernel off x86-64: the portable loop is the only path.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn detect() -> Option<Kernel> {
        None
    }

    /// The kernel for an input of `len` bytes: none below [`MIN_LEN`] or
    /// on a CPU without the features.
    #[inline(always)]
    pub(crate) fn for_len(len: usize) -> Option<Kernel> {
        if len < MIN_LEN {
            return None;
        }
        Kernel::detect()
    }

    /// Advance a raw CRC-32 state over `bytes`, as `sums(bytes, c, _).0`.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn crc32(self, bytes: &[u8], c: u32) -> u32 {
        // SAFETY: `self` exists only if `detect` found PCLMULQDQ (and
        // SSE2, which every x86-64 CPU has).
        unsafe { x86::crc32(bytes, c) }
    }

    /// Advance an FNV-1a-64 state over `bytes`, as `sums(bytes, _, h).1`.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn fnv1a64(self, bytes: &[u8], h: u64) -> u64 {
        // SAFETY: `self` exists only if `detect` found AVX-512 F, BW, DQ,
        // VNNI and VBMI, and GFNI.
        unsafe { x86::fnv1a64(bytes, h) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn crc32(self, bytes: &[u8], c: u32) -> u32 {
        crate::sums_portable(bytes, c, 0).0
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn fnv1a64(self, bytes: &[u8], h: u64) -> u64 {
        crate::sums_portable(bytes, 0, h).1
    }

    /// Both states over `bytes`, as `sums`: a CRC and an FNV pass per
    /// [`CHUNK`].
    pub(crate) fn sums(self, bytes: &[u8], c: u32, h: u64) -> (u32, u64) {
        bytes.chunks(CHUNK).fold((c, h), |(c, h), chunk| {
            (self.crc32(chunk, c), self.fnv1a64(chunk, h))
        })
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::STEP;
    use crate::{sums_portable, FNV_PRIME};
    use core::arch::x86_64::*;

    /// `P^e mod 2⁶⁴`.
    const fn prime_pow(mut e: u32) -> u64 {
        let (mut base, mut acc) = (FNV_PRIME, 1u64);
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            e >>= 1;
        }
        acc
    }

    /// The weight `P^(512 − i)` of byte `i`'s `δ` in one step, as four signed
    /// 16-bit digits: `DIGITS[v][t][u]` is digit `t` (of `2^(16t)`) of the
    /// weight of byte `32v + u`. `VPDPWSSD` multiplies a vector of 32 `δ`s by
    /// one digit vector and adds pairs into 16 dword sums; the digits are
    /// balanced (`−2¹⁵ ≤ d < 2¹⁵`) so the weight is exactly `Σ dₜ·2^(16t) mod
    /// 2⁶⁴` and no dword sum can overflow within a step
    /// (`|δ·d| ≤ 255·2¹⁵`, 32 products a lane).
    const DIGITS: [[[i16; 32]; 4]; STEP / 32] = {
        let mut d = [[[0i16; 32]; 4]; STEP / 32];
        let mut i = 0;
        while i < STEP {
            let mut w = prime_pow((STEP - i) as u32);
            let mut t = 0;
            while t < 4 {
                let digit = w as u16 as i16;
                d[i / 32][t][i % 32] = digit;
                w = w.wrapping_sub(digit as i64 as u64) >> 16;
                t += 1;
            }
            i += 1;
        }
        d
    };

    /// `P⁵¹²`: what one step multiplies the incoming state by.
    const P_STEP: u64 = prime_pow(STEP as u32);

    /// Shifts of `0xB3 = 1 + 2 + 16 + 32 + 128` past the first addend: the
    /// T-function's adders, each adding `x << s` to the running sum.
    const ADDERS: [usize; 4] = [1, 4, 5, 7];

    /// `VPTERNLOGQ` truth tables.
    const XOR3: i32 = 0x96;
    const MAJ3: i32 = 0xE8;

    /// 32 words as a ZMM register.
    #[inline(always)]
    fn from_words(v: [i16; 32]) -> __m512i {
        // SAFETY: both types are 64 plain bytes, and every bit pattern is
        // a valid value of either.
        unsafe { core::mem::transmute(v) }
    }

    /// 64 bytes as a ZMM register.
    #[inline(always)]
    fn from_bytes(v: [u8; 64]) -> __m512i {
        // SAFETY: both types are 64 plain bytes, and every bit pattern is
        // a valid value of either.
        unsafe { core::mem::transmute(v) }
    }

    /// 16 bytes as an XMM register.
    #[inline(always)]
    fn xmm(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: both types are 16 plain bytes, and every bit pattern is
        // a valid value of either.
        unsafe { core::mem::transmute(*bytes) }
    }

    // -----------------------------------------------------------------
    // CRC-32
    // -----------------------------------------------------------------

    /// `xⁿ mod P(x)` for the CRC-32 polynomial, bit-reflected and shifted
    /// up one bit: the carry-less product of two reflected operands lands
    /// one bit low, and the shift puts it back.
    const fn x_pow_mod(n: u32) -> u64 {
        let mut r = 0x8000_0000u32; // x⁰, reflected
        let mut i = 0;
        while i < n {
            r = (r >> 1) ^ if r & 1 != 0 { 0xEDB8_8320 } else { 0 };
            i += 1;
        }
        (r as u64) << 1
    }

    /// Folding constants: a 128-bit accumulator's low and high halves move
    /// forward by `x^(d+32)` and `x^(d−32)`, for a fold distance `d` of 512
    /// bits (four accumulators) or 128 bits (one); `x⁶⁴` takes 64 bits to
    /// 32.
    const FOLD_512: [u64; 2] = [x_pow_mod(512 + 32), x_pow_mod(512 - 32)];
    const FOLD_128: [u64; 2] = [x_pow_mod(128 + 32), x_pow_mod(128 - 32)];
    const FOLD_64: u64 = x_pow_mod(64);

    /// The polynomial (33 bits, reflected) and its Barrett quotient
    /// `⌊x⁶⁴ / P(x)⌋` (reflected likewise).
    const POLY_MU: [u64; 2] = {
        let p = 0x1_04C1_1DB7u128; // P(x), unreflected
        let mut num = 1u128 << 64;
        let mut mu = 0u64;
        let mut i = 64;
        while i >= 32 {
            if (num >> i) & 1 == 1 {
                mu |= 1 << (i - 32);
                num ^= p << (i - 32);
            }
            i -= 1;
        }
        [(0xEDB8_8320u64 << 1) | 1, mu.reverse_bits() >> 31]
    };

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn pair(k: [u64; 2]) -> __m128i {
        _mm_set_epi64x(k[1] as i64, k[0] as i64)
    }

    /// Fold `acc` 128 or 512 bits forward (by the pair of constants `k`)
    /// and add `data`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    /// Raw CRC-32 state over `bytes`: the folded kernel over the longest
    /// prefix that is 64 bytes or more and a multiple of 16, the portable
    /// loop over the rest.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn crc32(bytes: &[u8], c: u32) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        if blocks.len() < 4 {
            return sums_portable(bytes, c, 0).0;
        }
        let mut acc: [__m128i; 4] = core::array::from_fn(|i| xmm(&blocks[i]));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(c as i32));
        let (lines, rest) = blocks[4..].as_chunks::<4>();
        let k512 = pair(FOLD_512);
        for line in lines {
            for (a, block) in acc.iter_mut().zip(line) {
                *a = fold(*a, k512, xmm(block));
            }
        }
        let k128 = pair(FOLD_128);
        let mut x = acc[0];
        for data in acc[1..].iter().copied().chain(rest.iter().map(xmm)) {
            x = fold(x, k128, data);
        }
        // 128 → 96 bits (the message followed by the CRC's 32 zero bits):
        // the low half, moved forward 64 bits, onto the high half.
        let mask32 = _mm_set_epi32(0, !0, 0, !0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k128),
        );
        // 96 → 64 bits: the low 32, moved forward 64 bits, onto the rest.
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(
                _mm_and_si128(x, mask32),
                _mm_set_epi64x(0, FOLD_64 as i64),
            ),
        );
        // Barrett reduction to the 32-bit remainder.
        let poly_mu = pair(POLY_MU);
        let q = _mm_and_si128(
            _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), poly_mu),
            mask32,
        );
        x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(q, poly_mu));
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(x)) as u32;
        sums_portable(tail, c, 0).0
    }

    // -----------------------------------------------------------------
    // FNV-1a-64
    // -----------------------------------------------------------------

    /// Inclusive prefix XOR inside each 64-bit lane: bit `i` of the result
    /// is the XOR of bits `0..=i` of `v`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn prefix_xor(mut v: __m512i) -> __m512i {
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<1>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<2>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<4>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<8>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<16>(v));
        _mm512_xor_si512(v, _mm512_slli_epi64::<32>(v))
    }

    /// Byte `8i + j` goes to `8j + i`: the 8×8 transpose of a ZMM's bytes
    /// (`VPERMB` index), its own inverse.
    const BYTE_T: __m512i = {
        let mut idx = [0u8; 64];
        let mut p = 0;
        while p < 64 {
            idx[p] = ((p % 8) * 8 + p / 8) as u8;
            p += 1;
        }
        // SAFETY: both types are 64 plain bytes, and every bit pattern is
        // a valid value of either.
        unsafe { core::mem::transmute::<[u8; 64], __m512i>(idx) }
    };

    /// The 8×8 bit transpose of each qword: bit `i` of byte `j` of the
    /// result is bit `j` of byte `i`. Its own inverse.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,gfni")]
    fn transpose_bits(v: __m512i) -> __m512i {
        // GF2P8AFFINEQB sets bit i of byte j to the parity of matrix byte
        // 7 − i masked by byte j of its other operand; with the data as
        // the matrix (bytes reversed) and byte j = 1 << j, that parity is
        // bit j of data byte i.
        let (lo, hi) = (0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let reversed = _mm512_shuffle_epi8(v, _mm512_set4_epi64(hi, lo, hi, lo));
        let one_bit_each = 0x8040_2010_0804_0201_u64 as i64;
        _mm512_gf2p8affine_epi64_epi8::<0>(_mm512_set1_epi64(one_bit_each), reversed)
    }

    /// `VPERMT2Q` indices for [`transpose_lanes`]: for each of its rounds
    /// (`d` = 4, 2, 1), the low and the high result of pairing row `j`
    /// with row `j + d`. Lane `c` of the low result takes the first `d`
    /// lanes of each `2d`-lane group from row `j` (indices 0–7), then the
    /// same lanes of row `j + d` (8–15); the high result takes the second
    /// `d` lanes of each group.
    const LANE_T: [[__m512i; 2]; 3] = {
        let mut idx = [[[0i64; 8]; 2]; 3];
        let mut round = 0;
        while round < 3 {
            let d = 4 >> round;
            let mut high = 0;
            while high < 2 {
                let mut c = 0;
                while c < 8 {
                    let (group, r) = (c / (2 * d) * 2 * d, c % (2 * d));
                    let (src, col) = if r < d { (0, r) } else { (8, r - d) };
                    idx[round][high][c] = (src + group + col + high * d) as i64;
                    c += 1;
                }
                high += 1;
            }
            round += 1;
        }
        // SAFETY: both types are 3·2·64 plain bytes, and every bit pattern
        // is a valid value of either.
        unsafe { core::mem::transmute::<[[[i64; 8]; 2]; 3], [[__m512i; 2]; 3]>(idx) }
    };

    /// The 8×8 transpose of eight registers' qwords: lane `j` of result
    /// `k` is lane `k` of input `j`. Three rounds swap the off-diagonal
    /// blocks of 4, 2 and 1 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose_lanes(mut m: [__m512i; 8]) -> [__m512i; 8] {
        for (round, [lo, hi]) in LANE_T.into_iter().enumerate() {
            let d = 4 >> round;
            for j in (0..8).filter(|j| j & d == 0) {
                let (a, b) = (m[j], m[j + d]);
                m[j] = _mm512_permutex2var_epi64(a, lo, b);
                m[j + d] = _mm512_permutex2var_epi64(a, hi, b);
            }
        }
        m
    }

    /// FNV-1a-64 state over `bytes`: the kernel over whole 512-byte steps,
    /// the portable loop over the rest.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F, BW, DQ, VNNI and VBMI, and GFNI.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vnni,avx512vbmi,gfni")]
    pub(super) unsafe fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
        let (steps, tail) = bytes.as_chunks::<STEP>();
        let mut ell = h as u8;
        for step in steps {
            let (blocks, _) = step.as_chunks::<64>();
            let blocks: [__m512i; 8] = core::array::from_fn(|j| from_bytes(blocks[j]));

            // Bit planes: lane j of b[k] is bit k of every byte of block j.
            let b =
                transpose_lanes(blocks.map(|v| _mm512_permutexvar_epi8(BYTE_T, transpose_bits(v))));

            // Solve the planes of ℓ from bit 0 up. carry[a] is adder a's
            // carry into the current column.
            let zero = _mm512_setzero_si512();
            let ones = _mm512_set1_epi64(-1);
            let mut x = [zero; 8];
            let mut carry = [zero; ADDERS.len()];
            let mut ell_out = 0u8;
            let mut and_b = [zero; 8];
            for k in 0..8 {
                // g: what the other addends and the carries put in column k.
                let mut g = zero;
                for (a, &s) in ADDERS.iter().enumerate() {
                    if k >= s {
                        g = _mm512_ternarylogic_epi64::<XOR3>(g, x[k - s], carry[a]);
                    }
                }
                let q = prefix_xor(_mm512_xor_si512(b[k], g));
                // The exclusive prefix: within a lane, q shifted up one bit;
                // across lanes, the seed XOR every earlier lane's parity.
                let mut scan = _mm512_movepi64_mask(q) as u32; // lane parities
                scan ^= scan << 1;
                scan ^= scan << 2;
                scan ^= scan << 4;
                let seed = (ell >> k) as u32 & 1;
                let into_lane = ((scan << 1) ^ seed.wrapping_neg()) as u8;
                let within = _mm512_slli_epi64::<1>(q);
                let l = _mm512_mask_xor_epi64(within, into_lane, within, ones);
                ell_out |= ((seed ^ (scan >> 7)) as u8 & 1) << k;
                x[k] = _mm512_xor_si512(l, b[k]);
                and_b[k] = _mm512_and_si512(l, b[k]);

                // Carries out of column k, for column k + 1.
                if k < 7 {
                    let mut sum = x[k];
                    for (a, &s) in ADDERS.iter().enumerate() {
                        if k >= s {
                            let op = x[k - s];
                            let c = carry[a];
                            carry[a] = _mm512_ternarylogic_epi64::<MAJ3>(sum, op, c);
                            sum = _mm512_ternarylogic_epi64::<XOR3>(sum, op, c);
                        }
                    }
                }
            }

            // δ = (ℓ ⊕ b) − ℓ = b − 2(ℓ ∧ b), bytewise: ℓ ∧ b back from
            // planes to bytes, δ as 16-bit words, weighted digit by digit.
            let and_b =
                transpose_lanes(and_b).map(|v| transpose_bits(_mm512_permutexvar_epi8(BYTE_T, v)));
            let mut acc = [zero; 4];
            for (j, (block, and)) in blocks.iter().zip(and_b).enumerate() {
                let halves = [
                    (_mm512_castsi512_si256(*block), _mm512_castsi512_si256(and)),
                    (
                        _mm512_extracti64x4_epi64::<1>(*block),
                        _mm512_extracti64x4_epi64::<1>(and),
                    ),
                ];
                for (half, (bh, ah)) in halves.into_iter().enumerate() {
                    let a16 = _mm512_cvtepu8_epi16(ah);
                    let d16 =
                        _mm512_sub_epi16(_mm512_cvtepu8_epi16(bh), _mm512_add_epi16(a16, a16));
                    for (t, acc) in acc.iter_mut().enumerate() {
                        *acc = _mm512_dpwssd_epi32(*acc, d16, from_words(DIGITS[2 * j + half][t]));
                    }
                }
            }
            let mut sum = zero;
            for (t, acc) in acc.into_iter().enumerate() {
                let wide = _mm512_add_epi64(
                    _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc)),
                    _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc)),
                );
                sum = _mm512_add_epi64(
                    sum,
                    _mm512_sllv_epi64(wide, _mm512_set1_epi64(16 * t as i64)),
                );
            }
            h = h
                .wrapping_mul(P_STEP)
                .wrapping_add(_mm512_reduce_add_epi64(sum) as u64);
            // The next step seeds from the planes, not from `h`, so that
            // its planes need not wait for this step's weighting.
            debug_assert_eq!(h as u8, ell_out, "the low byte runs on its own");
            ell = ell_out;
        }
        sums_portable(tail, 0, h).1
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The weights' digits reassemble the weights, and each dword sum of
        /// one step stays inside `i32`.
        #[test]
        fn weight_digits_are_exact_and_cannot_overflow() {
            for i in 0..STEP {
                let digits = DIGITS[i / 32].map(|d| d[i % 32]);
                let w = (0..4).fold(0u64, |w, t| {
                    w.wrapping_add((digits[t] as i64 as u64).wrapping_shl(16 * t as u32))
                });
                assert_eq!(w, prime_pow((STEP - i) as u32), "byte {i}");
            }
            // A lane adds two products per VPDPWSSD, one VPDPWSSD per 32 bytes.
            let per_lane = 2 * (STEP / 32) as i64 * 255 * 32768;
            assert!(per_lane <= i32::MAX as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sums_portable, CRC_TABLES, FNV_OFFSET, FNV_PRIME};

    /// xorshift64*: the test needs bytes, not quality.
    fn random(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u8
            })
            .collect()
    }

    /// Both checksums a byte at a time, from the given raw states.
    fn serial(bytes: &[u8], mut c: u32, mut h: u64) -> (u32, u64) {
        for &b in bytes {
            c = CRC_TABLES[0][(c as u8 ^ b) as usize] ^ (c >> 8);
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        (c, h)
    }

    /// The kernels against the portable loop and the byte-serial form, on
    /// the inputs the kernels split differently: every length to two steps
    /// past the threshold, lengths around 512-byte steps and CRC fold
    /// lines, chunk boundaries, offsets that misalign the loads, several
    /// incoming states and a chain of calls. The portable side always
    /// runs, so an AVX-512 host still tests the loop that other CPUs and
    /// short inputs take.
    #[test]
    fn kernels_equal_the_portable_loop() {
        let kernel = Kernel::detect();
        match kernel {
            Some(_) => println!("checksum kernel: vector (PCLMULQDQ CRC-32, AVX-512 FNV-1a-64)"),
            None => println!(
                "checksum kernel: skipped, this CPU lacks its features; portable loop only"
            ),
        }
        let states = [
            (!0, FNV_OFFSET),
            (0, 0),
            (0x1234_5678, 0x9E37_79B9_7F4A_7C15),
        ];
        let check = |bytes: &[u8], what: &str| {
            for &(c, h) in &states {
                let want = serial(bytes, c, h);
                assert_eq!(sums_portable(bytes, c, h), want, "portable, {what}");
                if let Some(k) = kernel {
                    assert_eq!(k.crc32(bytes, c), want.0, "crc32 kernel, {what}");
                    assert_eq!(k.fnv1a64(bytes, h), want.1, "fnv1a64 kernel, {what}");
                    assert_eq!(k.sums(bytes, c, h), want, "fused kernel, {what}");
                }
            }
        };
        let buf = random(0x5EED, 2 * CHUNK + 100);
        for len in 0..=2 * STEP + MIN_LEN {
            check(&buf[..len], &format!("len {len}"));
        }
        for offset in [1, 7, 15, 63] {
            let lens = (STEP - 17..STEP + 17).chain([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 15]);
            for len in lens {
                check(
                    &buf[offset..offset + len],
                    &format!("offset {offset} len {len}"),
                );
            }
        }
        for fill in [0x00, 0xFF] {
            check(&[fill; 3 * STEP + 5], &format!("all {fill:#04x}"));
        }
        if let Some(k) = kernel {
            let (mut c, mut h) = (!0, FNV_OFFSET);
            let mut rest = &buf[..];
            for cut in random(9, 12).into_iter().map(|b| 4 * b as usize) {
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                (c, h) = (k.crc32(head, c), k.fnv1a64(head, h));
                rest = tail;
            }
            (c, h) = k.sums(rest, c, h);
            assert_eq!((c, h), serial(&buf, !0, FNV_OFFSET), "chained calls");
        }
    }
}
