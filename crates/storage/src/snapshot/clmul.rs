//! CRC-32 (IEEE, reflected) by carry-less multiplication on x86_64.
//!
//! The fold follows Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). Four 128-bit
//! accumulators each absorb every fourth 16-byte block: an accumulator is
//! multiplied forward by 512 bits modulo `P` (its two 64-bit halves, one
//! `PCLMULQDQ` each) and the next block is xored in. The four are then
//! folded into one 128 bits at a time, the remaining 16-byte blocks follow
//! the same way, and a Barrett reduction turns the 128-bit remainder into
//! the 32-bit register. Every constant is in the bit-reflected domain the
//! table-driven CRC uses, so the register this returns is exactly the one
//! the table would have produced for the same blocks.
//!
//! This is the only module of the crate's checksum code that uses
//! `unsafe`: the kernel runs only after run-time detection of `PCLMULQDQ`,
//! and its loads read whole 16-byte blocks of a borrowed slice.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
    _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Blocks the kernel needs before it pays for itself: the four accumulators
/// start from the first four 16-byte blocks.
const MIN_BLOCKS: usize = 4;

// The constants are powers of `x` modulo `P`, bit-reflected, as `(high
// half, low half)` of a 128-bit operand: the high half multiplies an
// accumulator's high 64 bits, the low half its low 64 bits.

/// Folds an accumulator forward by 64 bytes (four blocks).
const FOLD_BY_4: (i64, i64) = (0x1_c6e4_1596, 0x1_5444_2bd4);
/// Folds an accumulator forward by 16 bytes (one block). The high half also
/// folds the final 128 bits down to 64.
const FOLD_BY_1: (i64, i64) = (0xccaa_009e, 0x1_7519_97d0);
/// Folds the last 64 bits down to 32 plus a 32-bit carry.
const FOLD_64: i64 = 0x1_63cd_6124;
/// Barrett reduction: `(μ = floor(x^64 / P), P)`.
const MU_P: (i64, i64) = (0x1_f701_1641, 0x1_db71_0641);

/// Folds the longest whole-block prefix of `bytes` into the CRC register
/// `crc` and returns the new register with the bytes left over (fewer than
/// sixteen, or all of them when the CPU lacks `PCLMULQDQ` or the input is
/// shorter than four blocks).
pub(super) fn update(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
    let (blocks, tail) = bytes.as_chunks::<16>();
    if blocks.len() < MIN_BLOCKS || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return (crc, bytes);
    }
    // SAFETY: `PCLMULQDQ` was detected on this CPU just above, and SSE2 is
    // part of the x86_64 baseline, so every instruction `fold` is compiled
    // with is available.
    (unsafe { fold(crc, blocks) }, tail)
}

/// Reads one 16-byte block into a vector register.
#[inline]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is a reference to exactly 16 initialised bytes, and
    // `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// `acc · k` across the fold distance `k` encodes, plus `next`: the high
/// 64-bit half of `acc` is multiplied by `k`'s high half, the low half by
/// `k`'s low half, and both products are xored onto `next`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// The CRC register after `blocks` (at least [`MIN_BLOCKS`] of them).
///
/// # Safety
///
/// Calling it is sound only on a CPU with `PCLMULQDQ`, which [`update`]
/// detects first.
#[target_feature(enable = "pclmulqdq")]
fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
    debug_assert!(blocks.len() >= MIN_BLOCKS);
    let (head, rest) = blocks.split_at(MIN_BLOCKS);
    let mut acc = [
        _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(crc as i32)),
        load(&head[1]),
        load(&head[2]),
        load(&head[3]),
    ];
    let (quads, singles) = rest.as_chunks::<MIN_BLOCKS>();
    let by_4 = _mm_set_epi64x(FOLD_BY_4.0, FOLD_BY_4.1);
    for quad in quads {
        for (a, block) in acc.iter_mut().zip(quad) {
            *a = fold_into(*a, by_4, load(block));
        }
    }

    let by_1 = _mm_set_epi64x(FOLD_BY_1.0, FOLD_BY_1.1);
    let mut x = acc[0];
    for &next in &acc[1..] {
        x = fold_into(x, by_1, next);
    }
    for block in singles {
        x = fold_into(x, by_1, load(block));
    }

    // 128 → 64 bits: the low half, multiplied forward, lands on the high
    // half; this also appends the 32 zero bits a CRC shifts in.
    let x = _mm_xor_si128(
        _mm_srli_si128::<8>(x),
        _mm_clmulepi64_si128::<0x10>(x, by_1),
    );
    // 64 → 32 bits plus a 32-bit carry into the Barrett step.
    let mask32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
    let x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, FOLD_64)),
    );
    // Barrett reduction: q = floor(x · μ), remainder = x − q · P.
    let mu_p = _mm_set_epi64x(MU_P.0, MU_P.1);
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), mu_p);
    let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, mask32), mu_p);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32
}
