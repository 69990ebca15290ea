// Portable SIMD kernels for the inference hot paths.
//
// One header, compile-time dispatch: AVX2 -> SSE2 -> NEON -> scalar,
// selected by the predefined ISA macros of the active -march flags (the
// MLQR_NATIVE CMake option turns them on; the default x86-64 build gets
// SSE2, which every 64-bit x86 guarantees). On AVX2 hosts with VNNI the
// int8 kernel (dot_u8i8) additionally compiles to vpdpbusd and the tier
// name becomes "avx512-vnni" / "avx-vnni". simd_tier() reports the
// compiled tier so bench records say what they measured.
//
// The AVX2 and SSE2 tiers hold only per-tier primitives (float and int
// vectors, a 16-byte u8 x i8 madd); every x86 kernel — float, int16 and
// the non-VNNI u8 x i8 — is written once against them, so the two tiers
// differ only in lane width and in whether fmadd is fused (AVX2 built with
// FMA). NEON and scalar keep their own kernels.
//
// Every kernel also has an always-compiled *_scalar twin. The scalar
// versions are the semantic reference: tests pin the vector paths against
// them (bit-exact for the integer kernels, bounded relative error for
// float), and they are reachable on every platform regardless of tier.
//
// Integer contract — the part the fixed-point requantization relies on:
// dot_i16 / fused_dot_i16 return exact int64 sums of int16 x int16
// products. Integer addition is associative, so any vector reassociation
// is bit-identical to the scalar loop — PROVIDED no intermediate
// overflows. The madd-based paths sum adjacent product pairs in int32
// first; a pair can only exceed int32 range when both products are
// exactly +2^30, i.e. both operands of both products are -32768. The `a`
// operand (kernels / weights) therefore must not contain -32768. Codes
// produced by fit_format over a symmetric range satisfy this by
// construction (|code| <= 2^(W-1)-1); QuantizedFrontend::build and
// IntegerMlp<int16_t>::quantize additionally assert it, and both loaders
// re-check it. The `b` operand (trace / activation codes) may use the
// full int16 range including -32768.
//
// The x86 tiers never widen a madd result to int64 in the hot loop: each
// int32 partial p is split as 65536 * (p >> 16) + (p & 0xFFFF), the halves
// accumulate in int32 lanes that stay exact for 2^12 flushes per lane, and
// recombine in int64 once per 2^12 flushes — once per call for every row
// this repo runs (see "x86 int16 MAC kernels" below).
//
// fused_dot_i16_strip additionally lets the caller certify that `strip`
// consecutive madd blocks can accumulate in a plain int32 lane before the
// split flush: strip * 2 * max|a| * 2^15 <= 2^31 - 1, with max|a| the
// largest kernel-code magnitude. Narrow kernel grids thus flush once per
// many blocks; strip <= 1 (full-range codes) flushes every block.
// fused_dot_i16_strip_x4 scores four trace streams per kernel-row load at
// any strip. Every sum is exact, so all variants are bit-identical.
//
// madd_split_pairs_i16 is the batched int16 heads' kernel: shots in SIMD
// lanes, each weight split as w = 256 * wh + wl so that whole layers of up
// to kMaxSplitPairs input pairs accumulate exactly in int32.
//
// Float contract: vector kernels reassociate the sum (lane-striped
// partial accumulators), so results differ from the scalar loop by
// O(n * eps) — callers that need reproducibility across *tiers* must use
// the scalar variants; within one build the kernels are deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/fixed_point.h"

#if defined(__AVX2__)
#define MLQR_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MLQR_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define MLQR_SIMD_NEON 1
#include <arm_neon.h>
#else
#define MLQR_SIMD_SCALAR 1
#endif

// VNNI sub-tiers for the int8 datapath (dot_u8i8). Additive on top of
// MLQR_SIMD_AVX2: only the u8xs8 kernel and tier() consult them, every
// other kernel keeps its AVX2 form. vpdpbusd needs either the AVX-512
// flavour (AVX512VNNI, 512-bit operands; VL for the 256-bit form) or the
// VEX-encoded AVX-VNNI extension found on newer client cores.
#if defined(MLQR_SIMD_AVX2) && defined(__AVX512VNNI__) && \
    defined(__AVX512F__) && defined(__AVX512BW__)
#define MLQR_SIMD_VNNI512 1
#elif defined(MLQR_SIMD_AVX2) && \
    (defined(__AVXVNNI__) ||     \
     (defined(__AVX512VNNI__) && defined(__AVX512VL__)))
#define MLQR_SIMD_VNNI256 1
#endif

namespace mlqr::simd {

/// Compiled SIMD tier: "avx512-vnni", "avx-vnni", "avx2", "sse2", "neon"
/// or "scalar". The VNNI names imply the full AVX2 kernel set plus native
/// vpdpbusd in dot_u8i8.
inline const char* tier() {
#if defined(MLQR_SIMD_VNNI512)
  return "avx512-vnni";
#elif defined(MLQR_SIMD_VNNI256)
  return "avx-vnni";
#elif defined(MLQR_SIMD_AVX2)
  return "avx2";
#elif defined(MLQR_SIMD_SSE2)
  return "sse2";
#elif defined(MLQR_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ------------------------------------------------------------------ scalar --

inline float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// sum_t kr[t]*xi[t] - ki[t]*xq[t] — one fused front-end filter.
inline float fused_dot_f32_scalar(const float* kr, const float* ki,
                                  const float* xi, const float* xq,
                                  std::size_t n) {
  float acc = 0.0f;
  for (std::size_t t = 0; t < n; ++t) acc += kr[t] * xi[t] - ki[t] * xq[t];
  return acc;
}

/// y += a * x.
inline void axpy_f32_scalar(std::size_t n, float a, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// y += a0*x0 + a1*x1 + a2*x2 + a3*x3 (4-way register-blocked update).
inline void axpy4_f32_scalar(std::size_t n, const float* a, const float* x0,
                             const float* x1, const float* x2, const float* x3,
                             float* y) {
  for (std::size_t i = 0; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

/// out[r] = dot(shared, b_r) for four rows sharing one operand.
inline void dot4_f32_scalar(const float* shared, const float* b0,
                            const float* b1, const float* b2, const float* b3,
                            std::size_t n, float* out) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float s = shared[i];
    s0 += s * b0[i];
    s1 += s * b1[i];
    s2 += s * b2[i];
    s3 += s * b3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

inline std::int64_t dot_i16_scalar(const std::int16_t* a, const std::int16_t* b,
                                   std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return acc;
}

/// sum_t kr[t]*xi[t] - ki[t]*xq[t] with an exact int64 accumulator.
inline std::int64_t fused_dot_i16_scalar(const std::int16_t* kr,
                                         const std::int16_t* ki,
                                         const std::int16_t* xi,
                                         const std::int16_t* xq,
                                         std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t t = 0; t < n; ++t)
    acc += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return acc;
}

/// Largest pair count madd_split_pairs_i16 keeps exact in int32.
constexpr std::size_t kMaxSplitPairs = 127;

/// One output row of the batched int16 heads across `shots` shot lanes.
/// Activations come as input pairs interleaved per shot: input 2p+k of
/// shot s is act[p * act_stride + 2 * s + k]. The row's weights come split
/// as w = 256 * wh + wl (wh in [-128, 127], wl in [0, 255]), 2 * n_pairs
/// codes each in input order. Writes
///   hi[s] = sum_i wh[i] * x_s[i],   lo[s] = sum_i wl[i] * x_s[i],
/// so the row's dot product is 256 * hi[s] + lo[s]. Exact in int32 for
/// n_pairs <= kMaxSplitPairs at any int16 activations, -32768 included:
/// 127 pairs * 2 * 255 * 2^15 < 2^31.
inline void madd_split_pairs_i16_scalar(const std::int16_t* wh,
                                        const std::int16_t* wl,
                                        std::size_t n_pairs,
                                        const std::int16_t* act,
                                        std::size_t act_stride,
                                        std::size_t shots, std::int32_t* hi,
                                        std::int32_t* lo) {
  for (std::size_t s = 0; s < shots; ++s) {
    std::int32_t h = 0, l = 0;
    for (std::size_t p = 0; p < n_pairs; ++p) {
      const std::int16_t* x = act + p * act_stride + 2 * s;
      h += wh[2 * p] * x[0] + wh[2 * p + 1] * x[1];
      l += wl[2 * p] * x[0] + wl[2 * p + 1] * x[1];
    }
    hi[s] = h;
    lo[s] = l;
  }
}

/// sum_i u[i]*w[i] with u unsigned 8-bit and w signed 8-bit — the vpdpbusd
/// operand convention of the int8 MLP (activations carry a +128 bias that
/// the caller corrects with a per-row constant). The int32 accumulator is
/// exact for n <= 65807 (n * 255 * 128 < 2^31); IntegerMlp<int8_t> bounds
/// layer widths far below that.
inline std::int32_t dot_u8i8_scalar(const std::uint8_t* u, const std::int8_t* w,
                                    std::size_t n) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return acc;
}

/// z[i] += b[i] — the bias half of the batched-MLP epilogue.
inline void add_bias_f32_scalar(float* z, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] += b[i];
}

/// z[i] = max(z[i] + b[i], 0) — the fused bias+ReLU epilogue of the
/// batched MLP paths. Per-lane add then max, no reassociation, so the
/// vector tiers match this twin bit for bit on every input except the sign
/// of a zero result (vector max(+-0, +0) may return the other zero than
/// std::max) — which no consumer can observe through argmax.
inline void add_bias_relu_f32_scalar(float* z, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

// --------------------------------------------------------------- x86 tiers --
//
// The AVX2 and SSE2 tiers define only primitives, in detail::; every x86
// kernel is written once against them (see "x86 kernels" below). A VecF
// holds kF32Lanes floats; a VecI holds kI16Lanes int16 codes, or half as
// many int32 lanes.

#if defined(MLQR_SIMD_AVX2)

namespace detail {

using VecF = __m256;
constexpr std::size_t kF32Lanes = 8;

inline VecF zero_f32() { return _mm256_setzero_ps(); }
inline VecF set1_f32(float x) { return _mm256_set1_ps(x); }
inline VecF load_f32(const float* p) { return _mm256_loadu_ps(p); }
inline void store_f32(float* p, VecF v) { _mm256_storeu_ps(p, v); }
inline VecF add_f32(VecF a, VecF b) { return _mm256_add_ps(a, b); }
inline VecF sub_f32(VecF a, VecF b) { return _mm256_sub_ps(a, b); }
inline VecF max_f32(VecF a, VecF b) { return _mm256_max_ps(a, b); }

/// a * b + c, fused when the build has FMA.
inline VecF fmadd(VecF a, VecF b, VecF c) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

inline float hsum_f32(VecF v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x55);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

using VecI = __m256i;
constexpr std::size_t kI16Lanes = 16;

inline VecI zero_i32() { return _mm256_setzero_si256(); }
inline VecI set1_i32(std::int32_t x) { return _mm256_set1_epi32(x); }
inline VecI load_i16(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store_i32(std::int32_t* p, VecI v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline VecI madd_i16(VecI a, VecI b) { return _mm256_madd_epi16(a, b); }
inline VecI add_i32(VecI a, VecI b) { return _mm256_add_epi32(a, b); }
inline VecI sub_i32(VecI a, VecI b) { return _mm256_sub_epi32(a, b); }
inline VecI hi16_i32(VecI p) { return _mm256_srai_epi32(p, 16); }

inline std::int32_t hsum_i32(VecI v) {
  __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(v),
                             _mm256_extracti128_si256(v, 1));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0x4e));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0xb1));
  return _mm_cvtsi128_si32(lo);
}

/// 16 u8 x i8 products, summed pairwise into int32 lanes: both operands
/// widen to int16 for one madd. maddubs is NOT usable here — its pairwise
/// int16 sum saturates (255*127*2 > 32767), which would break the
/// exact-sum contract.
inline VecI madd_u8i8(const std::uint8_t* u, const std::int8_t* w) {
  return _mm256_madd_epi16(
      _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(u))),
      _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w))));
}

}  // namespace detail

#elif defined(MLQR_SIMD_SSE2)

namespace detail {

using VecF = __m128;
constexpr std::size_t kF32Lanes = 4;

inline VecF zero_f32() { return _mm_setzero_ps(); }
inline VecF set1_f32(float x) { return _mm_set1_ps(x); }
inline VecF load_f32(const float* p) { return _mm_loadu_ps(p); }
inline void store_f32(float* p, VecF v) { _mm_storeu_ps(p, v); }
inline VecF add_f32(VecF a, VecF b) { return _mm_add_ps(a, b); }
inline VecF sub_f32(VecF a, VecF b) { return _mm_sub_ps(a, b); }
inline VecF max_f32(VecF a, VecF b) { return _mm_max_ps(a, b); }

/// c + a * b, unfused: SSE2 has no FMA.
inline VecF fmadd(VecF a, VecF b, VecF c) {
  return _mm_add_ps(c, _mm_mul_ps(a, b));
}

inline float hsum_f32(VecF v) {
  __m128 sh = _mm_movehl_ps(v, v);
  v = _mm_add_ps(v, sh);
  sh = _mm_shuffle_ps(v, v, 0x55);
  v = _mm_add_ss(v, sh);
  return _mm_cvtss_f32(v);
}

using VecI = __m128i;
constexpr std::size_t kI16Lanes = 8;

inline VecI zero_i32() { return _mm_setzero_si128(); }
inline VecI set1_i32(std::int32_t x) { return _mm_set1_epi32(x); }
inline VecI load_i16(const std::int16_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store_i32(std::int32_t* p, VecI v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline VecI madd_i16(VecI a, VecI b) { return _mm_madd_epi16(a, b); }
inline VecI add_i32(VecI a, VecI b) { return _mm_add_epi32(a, b); }
inline VecI sub_i32(VecI a, VecI b) { return _mm_sub_epi32(a, b); }
inline VecI hi16_i32(VecI p) { return _mm_srai_epi32(p, 16); }

inline std::int32_t hsum_i32(VecI v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0x4e));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0xb1));
  return _mm_cvtsi128_si32(v);
}

/// 16 u8 x i8 products, summed pairwise into int32 lanes. SSE2 has no
/// byte-wise widening loads: zero-extend u with unpack against zero,
/// sign-extend w with unpack-against-self + arithmetic shift, then madd
/// the int16 lanes (exact: |u*w| <= 255*128 per product, two per lane).
inline VecI madd_u8i8(const std::uint8_t* u, const std::int8_t* w) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i vu = _mm_loadu_si128(reinterpret_cast<const __m128i*>(u));
  const __m128i vw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
  const __m128i wlo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, vw), 8);
  const __m128i whi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, vw), 8);
  return _mm_add_epi32(_mm_madd_epi16(_mm_unpacklo_epi8(vu, zero), wlo),
                       _mm_madd_epi16(_mm_unpackhi_epi8(vu, zero), whi));
}

}  // namespace detail

#elif defined(MLQR_SIMD_NEON)

namespace detail {

inline float hsum_f32(float32x4_t v) {
#if defined(__aarch64__)
  return vaddvq_f32(v);
#else
  float32x2_t lo = vadd_f32(vget_low_f32(v), vget_high_f32(v));
  lo = vpadd_f32(lo, lo);
  return vget_lane_f32(lo, 0);
#endif
}

inline std::int64_t hsum_i64(int64x2_t v) {
  return vgetq_lane_s64(v, 0) + vgetq_lane_s64(v, 1);
}

}  // namespace detail

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = vmlaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
  float sum = detail::hsum_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  // Two accumulator chains per stream to cover the fused-MLA latency on
  // the long front-end rows (see the x86 kernels for the rationale).
  float32x4_t r0 = vdupq_n_f32(0.0f), r1 = vdupq_n_f32(0.0f);
  float32x4_t i0 = vdupq_n_f32(0.0f), i1 = vdupq_n_f32(0.0f);
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    r0 = vmlaq_f32(r0, vld1q_f32(kr + t), vld1q_f32(xi + t));
    i0 = vmlaq_f32(i0, vld1q_f32(ki + t), vld1q_f32(xq + t));
    r1 = vmlaq_f32(r1, vld1q_f32(kr + t + 4), vld1q_f32(xi + t + 4));
    i1 = vmlaq_f32(i1, vld1q_f32(ki + t + 4), vld1q_f32(xq + t + 4));
  }
  float32x4_t accr = vaddq_f32(r0, r1);
  float32x4_t acci = vaddq_f32(i0, i1);
  for (; t + 4 <= n; t += 4) {
    accr = vmlaq_f32(accr, vld1q_f32(kr + t), vld1q_f32(xi + t));
    acci = vmlaq_f32(acci, vld1q_f32(ki + t), vld1q_f32(xq + t));
  }
  float sum = detail::hsum_f32(vsubq_f32(accr, acci));
  for (; t < n; ++t) sum += kr[t] * xi[t] - ki[t] * xq[t];
  return sum;
}

inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(y + i, vmlaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] += a * x[i];
}

inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t acc = vld1q_f32(y + i);
    acc = vmlaq_n_f32(acc, vld1q_f32(x0 + i), a[0]);
    acc = vmlaq_n_f32(acc, vld1q_f32(x1 + i), a[1]);
    acc = vmlaq_n_f32(acc, vld1q_f32(x2 + i), a[2]);
    acc = vmlaq_n_f32(acc, vld1q_f32(x3 + i), a[3]);
    vst1q_f32(y + i, acc);
  }
  for (; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  float32x4_t s0 = vdupq_n_f32(0.0f), s1 = vdupq_n_f32(0.0f);
  float32x4_t s2 = vdupq_n_f32(0.0f), s3 = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t s = vld1q_f32(shared + i);
    s0 = vmlaq_f32(s0, s, vld1q_f32(b0 + i));
    s1 = vmlaq_f32(s1, s, vld1q_f32(b1 + i));
    s2 = vmlaq_f32(s2, s, vld1q_f32(b2 + i));
    s3 = vmlaq_f32(s3, s, vld1q_f32(b3 + i));
  }
  out[0] = detail::hsum_f32(s0);
  out[1] = detail::hsum_f32(s1);
  out[2] = detail::hsum_f32(s2);
  out[3] = detail::hsum_f32(s3);
  for (; i < n; ++i) {
    const float s = shared[i];
    out[0] += s * b0[i];
    out[1] += s * b1[i];
    out[2] += s * b2[i];
    out[3] += s * b3[i];
  }
}

inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t va = vld1q_s16(a + i);
    const int16x8_t vb = vld1q_s16(b + i);
    int32x4_t p = vmull_s16(vget_low_s16(va), vget_low_s16(vb));
    acc = vpadalq_s32(acc, p);
    p = vmull_s16(vget_high_s16(va), vget_high_s16(vb));
    acc = vpadalq_s32(acc, p);
  }
  std::int64_t sum = detail::hsum_i64(acc);
  for (; i < n; ++i)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return sum;
}

inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  return dot_i16(kr, xi, n) - dot_i16(ki, xq, n);
}

inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t /*strip*/) {
  // NEON's vmlal/vpadal pipeline widens cheaply already; the strip hint
  // buys nothing here. Exactness makes the two forms bit-identical.
  return fused_dot_i16(kr, ki, xi, xq, n);
}

inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t strip,
                                   std::int64_t* out) {
  for (int s = 0; s < 4; ++s)
    out[s] = fused_dot_i16_strip(kr, ki, xi[s], xq[s], n, strip);
}

inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // u8 values fit int16 after zero-extension, so the product is an exact
    // widening s16 multiply.
    const int16x8_t vu = vreinterpretq_s16_u16(vmovl_u8(vld1_u8(u + i)));
    const int16x8_t vw = vmovl_s8(vld1_s8(w + i));
    acc = vaddq_s32(acc, vmull_s16(vget_low_s16(vu), vget_low_s16(vw)));
    acc = vaddq_s32(acc, vmull_s16(vget_high_s16(vu), vget_high_s16(vw)));
  }
#if defined(__aarch64__)
  std::int32_t sum = vaddvq_s32(acc);
#else
  int32x2_t lo = vadd_s32(vget_low_s32(acc), vget_high_s32(acc));
  lo = vpadd_s32(lo, lo);
  std::int32_t sum = vget_lane_s32(lo, 0);
#endif
  for (; i < n; ++i)
    sum += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return sum;
}

inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(z + i, vaddq_f32(vld1q_f32(z + i), vld1q_f32(b + i)));
  for (; i < n; ++i) z[i] += b[i];
}

inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(z + i,
              vmaxq_f32(vaddq_f32(vld1q_f32(z + i), vld1q_f32(b + i)), zero));
  for (; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

#else  // scalar tier

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  return dot_f32_scalar(a, b, n);
}
inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  return fused_dot_f32_scalar(kr, ki, xi, xq, n);
}
inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  axpy_f32_scalar(n, a, x, y);
}
inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  axpy4_f32_scalar(n, a, x0, x1, x2, x3, y);
}
inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  dot4_f32_scalar(shared, b0, b1, b2, b3, n, out);
}
inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  return dot_i16_scalar(a, b, n);
}
inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  return fused_dot_i16_scalar(kr, ki, xi, xq, n);
}
inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t /*strip*/) {
  return fused_dot_i16_scalar(kr, ki, xi, xq, n);
}
inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t /*strip*/,
                                   std::int64_t* out) {
  for (int s = 0; s < 4; ++s)
    out[s] = fused_dot_i16_scalar(kr, ki, xi[s], xq[s], n);
}
inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  return dot_u8i8_scalar(u, w, n);
}
inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  add_bias_f32_scalar(z, b, n);
}
inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  add_bias_relu_f32_scalar(z, b, n);
}

#endif

// ------------------------------------------------------------- x86 kernels --
//
// One body per kernel for the AVX2 and SSE2 tiers, written against the
// per-tier primitives in detail:: above. NEON and scalar keep their own.

#if defined(MLQR_SIMD_AVX2) || defined(MLQR_SIMD_SSE2)

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  constexpr std::size_t L = detail::kF32Lanes;
  detail::VecF acc = detail::zero_f32();
  std::size_t i = 0;
  for (; i + L <= n; i += L)
    acc = detail::fmadd(detail::load_f32(a + i), detail::load_f32(b + i), acc);
  float sum = detail::hsum_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  // Four accumulator chains per stream: one chain is bound by the fmadd
  // (or addps) latency, leaving the FMA / multiply ports mostly idle on
  // the long front-end rows this kernel exists for; four independent
  // chains keep them fed. The deeper reassociation changes nothing
  // contractual (the float kernels already reassociate, see the header
  // comment).
  constexpr std::size_t L = detail::kF32Lanes;
  detail::VecF re[4], im[4];
  for (std::size_t c = 0; c < 4; ++c) re[c] = im[c] = detail::zero_f32();
  std::size_t t = 0;
  for (; t + 4 * L <= n; t += 4 * L)
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t o = t + c * L;
      re[c] = detail::fmadd(detail::load_f32(kr + o), detail::load_f32(xi + o),
                            re[c]);
      im[c] = detail::fmadd(detail::load_f32(ki + o), detail::load_f32(xq + o),
                            im[c]);
    }
  detail::VecF accr = detail::add_f32(detail::add_f32(re[0], re[1]),
                                      detail::add_f32(re[2], re[3]));
  detail::VecF acci = detail::add_f32(detail::add_f32(im[0], im[1]),
                                      detail::add_f32(im[2], im[3]));
  for (; t + L <= n; t += L) {
    accr = detail::fmadd(detail::load_f32(kr + t), detail::load_f32(xi + t),
                         accr);
    acci = detail::fmadd(detail::load_f32(ki + t), detail::load_f32(xq + t),
                         acci);
  }
  float sum = detail::hsum_f32(detail::sub_f32(accr, acci));
  for (; t < n; ++t) sum += kr[t] * xi[t] - ki[t] * xq[t];
  return sum;
}

inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  constexpr std::size_t L = detail::kF32Lanes;
  const detail::VecF va = detail::set1_f32(a);
  std::size_t i = 0;
  for (; i + L <= n; i += L)
    detail::store_f32(y + i, detail::fmadd(va, detail::load_f32(x + i),
                                           detail::load_f32(y + i)));
  for (; i < n; ++i) y[i] += a * x[i];
}

inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  constexpr std::size_t L = detail::kF32Lanes;
  const float* x[4] = {x0, x1, x2, x3};
  detail::VecF va[4];
  for (int r = 0; r < 4; ++r) va[r] = detail::set1_f32(a[r]);
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    detail::VecF acc = detail::load_f32(y + i);
    for (int r = 0; r < 4; ++r)
      acc = detail::fmadd(va[r], detail::load_f32(x[r] + i), acc);
    detail::store_f32(y + i, acc);
  }
  for (; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  constexpr std::size_t L = detail::kF32Lanes;
  const float* b[4] = {b0, b1, b2, b3};
  detail::VecF acc[4];
  for (int r = 0; r < 4; ++r) acc[r] = detail::zero_f32();
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    const detail::VecF s = detail::load_f32(shared + i);
    for (int r = 0; r < 4; ++r)
      acc[r] = detail::fmadd(s, detail::load_f32(b[r] + i), acc[r]);
  }
  for (int r = 0; r < 4; ++r) out[r] = detail::hsum_f32(acc[r]);
  for (; i < n; ++i)
    for (int r = 0; r < 4; ++r) out[r] += shared[i] * b[r][i];
}

inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  constexpr std::size_t L = detail::kF32Lanes;
  std::size_t i = 0;
  for (; i + L <= n; i += L)
    detail::store_f32(
        z + i, detail::add_f32(detail::load_f32(z + i), detail::load_f32(b + i)));
  for (; i < n; ++i) z[i] += b[i];
}

inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  constexpr std::size_t L = detail::kF32Lanes;
  const detail::VecF zero = detail::zero_f32();
  std::size_t i = 0;
  for (; i + L <= n; i += L)
    detail::store_f32(
        z + i, detail::max_f32(detail::add_f32(detail::load_f32(z + i),
                                               detail::load_f32(b + i)),
                               zero));
  for (; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  std::size_t i = 0;
#if defined(MLQR_SIMD_VNNI512)
  __m512i acc512 = _mm512_setzero_si512();
  for (; i + 64 <= n; i += 64)
    acc512 = _mm512_dpbusd_epi32(
        acc512, _mm512_loadu_si512(u + i),
        _mm512_loadu_si512(reinterpret_cast<const void*>(w + i)));
  std::int32_t sum = _mm512_reduce_add_epi32(acc512);
#elif defined(MLQR_SIMD_VNNI256)
  __m256i acc = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    const __m256i vu =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + i));
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
#if defined(__AVXVNNI__) && !defined(__AVX512VNNI__)
    acc = _mm256_dpbusd_avx_epi32(acc, vu, vw);
#else
    acc = _mm256_dpbusd_epi32(acc, vu, vw);
#endif
  }
  std::int32_t sum = detail::hsum_i32(acc);
#else
  detail::VecI acc = detail::zero_i32();
  for (; i + 16 <= n; i += 16)
    acc = detail::add_i32(acc, detail::madd_u8i8(u + i, w + i));
  std::int32_t sum = detail::hsum_i32(acc);
#endif
  for (; i < n; ++i)
    sum += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return sum;
}

// x86 int16 MAC kernels. Split accumulation. pmaddwd sums adjacent product pairs into int32
// lanes; with no -2^15 in the `a` operand each such p has
// |p| <= 2^31 - 2^16, but the sum of two may not fit. Rather than
// sign-extend every p to int64 (two unpack shuffles per vector), a lane
// accumulates the two halves of
//     p = 65536 * (p >> 16) + (p & 0xFFFF)
// in int32. The high halves (psrad) lie in [-2^15, 2^15) and sum exactly
// into `hi`. The low halves need no pand of their own: `wrap` sums p
// itself modulo 2^32, and sum(p & 0xFFFF) = wrap - 65536 * hi (mod 2^32).
// That sum lies in [0, K * 65535] after K flushes, or in
// (-K * 65536, K * 65536) for a fused pr - pi (whose int32 difference
// may itself overflow — the wrap does not care), so it is exact as int32
// while below 2^31 in magnitude. kSplitFlushes = 2^12 flushes per lane
// keep that true even summed across a vector's 8 lanes, so a lane-wise
// int32 reduction recombines both halves exactly, once per call:
// 65536 * sum(hi) + sum(lo) in int64.

namespace detail {

constexpr std::size_t kSplitFlushes = std::size_t{1} << 12;

inline VecI madd_at(const std::int16_t* a, const std::int16_t* b,
                    std::size_t i) {
  return madd_i16(load_i16(a + i), load_i16(b + i));
}

/// The split accumulator described above; each add is one flush, at most
/// kSplitFlushes per accumulator.
struct SplitAcc {
  VecI hi = zero_i32();
  VecI wrap = zero_i32();

  void add(VecI p) {
    hi = add_i32(hi, hi16_i32(p));
    wrap = add_i32(wrap, p);
  }
  /// Flushes pr - pi.
  void add_diff(VecI pr, VecI pi) {
    hi = add_i32(hi, sub_i32(hi16_i32(pr), hi16_i32(pi)));
    wrap = add_i32(wrap, sub_i32(pr, pi));
  }
  std::int64_t sum() const {
    const std::int32_t h = hsum_i32(hi);
    const auto lo = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(hsum_i32(wrap)) -
        (static_cast<std::uint32_t>(h) << 16));
    return 65536 * std::int64_t{h} + lo;
  }
};

/// fused_dot_i16_strip_x4 over `blocks` blocks from sample t (at most
/// kSplitFlushes), one split flush of pr and pi per block; adds the four
/// exact sums into sum[].
inline void x4_flush_run(const std::int16_t* kr, const std::int16_t* ki,
                         const std::int16_t* const* xi,
                         const std::int16_t* const* xq, std::size_t t,
                         std::size_t blocks, std::int64_t* sum) {
  SplitAcc acc[4];
  for (const std::size_t end = t + blocks * kI16Lanes; t < end;
       t += kI16Lanes) {
    const VecI vkr = load_i16(kr + t);
    const VecI vki = load_i16(ki + t);
    for (int s = 0; s < 4; ++s)
      acc[s].add_diff(madd_i16(vkr, load_i16(xi[s] + t)),
                      madd_i16(vki, load_i16(xq[s] + t)));
  }
  for (int s = 0; s < 4; ++s) sum[s] += acc[s].sum();
}

/// As x4_flush_run, with `per_flush` blocks of pr - pi summed in plain
/// int32 lanes before each split flush (at most kSplitFlushes flushes).
inline void x4_strip_run(const std::int16_t* kr, const std::int16_t* ki,
                         const std::int16_t* const* xi,
                         const std::int16_t* const* xq, std::size_t t,
                         std::size_t blocks, std::size_t per_flush,
                         std::int64_t* sum) {
  SplitAcc acc[4];
  while (blocks > 0) {
    const std::size_t run = std::min(per_flush, blocks);
    blocks -= run;
    VecI a32[4];
    for (int s = 0; s < 4; ++s) a32[s] = zero_i32();
    for (const std::size_t end = t + run * kI16Lanes; t < end;
         t += kI16Lanes) {
      const VecI vkr = load_i16(kr + t);
      const VecI vki = load_i16(ki + t);
      for (int s = 0; s < 4; ++s)
        a32[s] = add_i32(a32[s], sub_i32(madd_i16(vkr, load_i16(xi[s] + t)),
                                         madd_i16(vki, load_i16(xq[s] + t))));
    }
    for (int s = 0; s < 4; ++s) acc[s].add(a32[s]);
  }
  for (int s = 0; s < 4; ++s) sum[s] += acc[s].sum();
}

/// madd_split_pairs_i16 over V vectors of shots (kI16Lanes / 2 shots
/// each, one input pair per shot), sharing every broadcast weight pair.
template <int V>
inline void split_pairs_block(const std::int16_t* wh, const std::int16_t* wl,
                              std::size_t n_pairs, const std::int16_t* act,
                              std::size_t act_stride, std::int32_t* hi,
                              std::int32_t* lo) {
  VecI h[V], l[V];
  for (int v = 0; v < V; ++v) h[v] = l[v] = zero_i32();
  for (std::size_t p = 0; p < n_pairs; ++p) {
    std::int32_t word_h, word_l;
    std::memcpy(&word_h, wh + 2 * p, sizeof word_h);
    std::memcpy(&word_l, wl + 2 * p, sizeof word_l);
    const VecI vh = set1_i32(word_h), vl = set1_i32(word_l);
    const std::int16_t* x = act + p * act_stride;
    for (int v = 0; v < V; ++v) {
      const VecI a = load_i16(x + v * kI16Lanes);
      h[v] = add_i32(h[v], madd_i16(a, vh));
      l[v] = add_i32(l[v], madd_i16(a, vl));
    }
  }
  for (int v = 0; v < V; ++v) {
    store_i32(hi + v * (kI16Lanes / 2), h[v]);
    store_i32(lo + v * (kI16Lanes / 2), l[v]);
  }
}

}  // namespace detail

inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  constexpr std::size_t L = detail::kI16Lanes;
  std::int64_t sum = 0;
  std::size_t i = 0;
  for (std::size_t blocks = n / L; blocks > 0;) {
    const std::size_t run = std::min(blocks, detail::kSplitFlushes);
    blocks -= run;
    detail::SplitAcc acc;
    for (const std::size_t end = i + run * L; i < end; i += L)
      acc.add(detail::madd_at(a, b, i));
    sum += acc.sum();
  }
  return sum + dot_i16_scalar(a + i, b + i, n - i);
}

inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  constexpr std::size_t L = detail::kI16Lanes;
  std::int64_t sum = 0;
  std::size_t t = 0;
  for (std::size_t blocks = n / L; blocks > 0;) {
    const std::size_t run = std::min(blocks, detail::kSplitFlushes);
    blocks -= run;
    detail::SplitAcc acc;
    for (const std::size_t end = t + run * L; t < end; t += L)
      acc.add_diff(detail::madd_at(kr, xi, t), detail::madd_at(ki, xq, t));
    sum += acc.sum();
  }
  return sum + fused_dot_i16_scalar(kr + t, ki + t, xi + t, xq + t, n - t);
}

inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t strip) {
  // `strip` madd blocks accumulate in plain int32 lanes (the caller's
  // certificate) before one split flush.
  if (strip < 2) return fused_dot_i16(kr, ki, xi, xq, n);
  constexpr std::size_t L = detail::kI16Lanes;
  std::int64_t sum = 0;
  std::size_t t = 0;
  for (std::size_t blocks = n / L; blocks > 0;) {
    detail::SplitAcc acc;
    for (std::size_t f = 0; f < detail::kSplitFlushes && blocks > 0; ++f) {
      const std::size_t run = std::min(strip, blocks);
      blocks -= run;
      detail::VecI a32r = detail::zero_i32(), a32i = detail::zero_i32();
      for (const std::size_t end = t + run * L; t < end; t += L) {
        a32r = detail::add_i32(a32r, detail::madd_at(kr, xi, t));
        a32i = detail::add_i32(a32i, detail::madd_at(ki, xq, t));
      }
      acc.add_diff(a32r, a32i);
    }
    sum += acc.sum();
  }
  return sum + fused_dot_i16_scalar(kr + t, ki + t, xi + t, xq + t, n - t);
}

inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t strip,
                                   std::int64_t* out) {
  // Four trace streams per kernel-row pass: each block loads kr/ki once
  // and madds them against all four streams. Below strip 4 (full-range
  // kernel codes) every block flushes pr and pi straight into the split
  // accumulators. Deeper strips first accumulate pr - pi in int32 for
  // strip / 2 blocks: each block spends two of the strip's single-madd
  // additions. Each chunk of at most kSplitFlushes flushes runs in its own
  // helper, so the accumulators stay in registers.
  constexpr std::size_t L = detail::kI16Lanes;
  std::int64_t sum[4] = {0, 0, 0, 0};
  std::size_t t = 0;
  for (std::size_t blocks = n / L; blocks > 0;) {
    const std::size_t per_flush = strip < 4 ? 1 : strip / 2;
    const std::size_t run =
        std::min(blocks, detail::kSplitFlushes * per_flush);
    if (per_flush == 1)
      detail::x4_flush_run(kr, ki, xi, xq, t, run, sum);
    else
      detail::x4_strip_run(kr, ki, xi, xq, t, run, per_flush, sum);
    blocks -= run;
    t += run * L;
  }
  for (int s = 0; s < 4; ++s)
    out[s] = sum[s] + fused_dot_i16_scalar(kr + t, ki + t, xi[s] + t,
                                           xq[s] + t, n - t);
}

inline void madd_split_pairs_i16(const std::int16_t* wh, const std::int16_t* wl,
                                 std::size_t n_pairs, const std::int16_t* act,
                                 std::size_t act_stride, std::size_t shots,
                                 std::int32_t* hi, std::int32_t* lo) {
  // Shot lanes: a vector holds kI16Lanes / 2 shots' input pairs, and one
  // pmaddwd against the broadcast weight pair gives each shot its pair sum.
  constexpr std::size_t kVecShots = detail::kI16Lanes / 2;
  std::size_t s = 0;
  for (; s + 4 * kVecShots <= shots; s += 4 * kVecShots)
    detail::split_pairs_block<4>(wh, wl, n_pairs, act + 2 * s, act_stride,
                                 hi + s, lo + s);
  for (; s + kVecShots <= shots; s += kVecShots)
    detail::split_pairs_block<1>(wh, wl, n_pairs, act + 2 * s, act_stride,
                                 hi + s, lo + s);
  madd_split_pairs_i16_scalar(wh, wl, n_pairs, act + 2 * s, act_stride,
                              shots - s, hi + s, lo + s);
}

#else

inline void madd_split_pairs_i16(const std::int16_t* wh, const std::int16_t* wl,
                                 std::size_t n_pairs, const std::int16_t* act,
                                 std::size_t act_stride, std::size_t shots,
                                 std::int32_t* hi, std::int32_t* lo) {
  madd_split_pairs_i16_scalar(wh, wl, n_pairs, act, act_stride, shots, hi,
                              lo);
}

#endif

// ------------------------------------------- trace-code quantization ------
//
// Pass 0 of the integer front-end: out[i] = clamp(round_half_even(
// x[i] * scale), lo, hi) with scale an exact power of two and lo/hi the
// int16-range code bounds of the ADC grid. The scalar twin is the
// semantic definition (mlqr::round_half_even — independent of the runtime
// FP rounding mode). The vector version uses cvtpd->epi32, which rounds
// per the MXCSR mode — bit-identical to the scalar twin ONLY under the
// default round-to-nearest(-even) environment, so callers must guard it
// with std::fegetround() == FE_TONEAREST and fall back to the scalar twin
// otherwise. Clamping at the exact integer bounds commutes with
// round-to-nearest, so clamping in the double domain first (which also
// keeps the conversion away from the int32 overflow sentinel) changes
// nothing.

inline void quantize_codes_i16_scalar(const float* x, std::size_t n,
                                      double scale, std::int32_t lo,
                                      std::int32_t hi, std::int16_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = round_half_even(static_cast<double>(x[i]) * scale);
    const double c = r < static_cast<double>(lo)   ? static_cast<double>(lo)
                     : r > static_cast<double>(hi) ? static_cast<double>(hi)
                                                   : r;
    out[i] = static_cast<std::int16_t>(c);
  }
}

#if defined(MLQR_SIMD_AVX2) || defined(MLQR_SIMD_SSE2)

inline void quantize_codes_i16(const float* x, std::size_t n, double scale,
                               std::int32_t lo, std::int32_t hi,
                               std::int16_t* out) {
  const __m128d vscale = _mm_set1_pd(scale);
  const __m128d vlo = _mm_set1_pd(static_cast<double>(lo));
  const __m128d vhi = _mm_set1_pd(static_cast<double>(hi));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i q[2];
    for (std::size_t half = 0; half < 2; ++half) {
      const __m128 f = _mm_loadu_ps(x + i + 4 * half);
      __m128d a = _mm_mul_pd(_mm_cvtps_pd(f), vscale);
      __m128d b =
          _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(f, f)), vscale);
      a = _mm_max_pd(_mm_min_pd(a, vhi), vlo);
      b = _mm_max_pd(_mm_min_pd(b, vhi), vlo);
      // cvtpd_epi32 rounds per MXCSR: nearest-even in the guarded env.
      q[half] = _mm_unpacklo_epi64(_mm_cvtpd_epi32(a), _mm_cvtpd_epi32(b));
    }
    // Values already sit inside the int16 range, so the saturating pack is
    // a pure narrowing.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi32(q[0], q[1]));
  }
  if (i < n) quantize_codes_i16_scalar(x + i, n - i, scale, lo, hi, out + i);
}

#else

inline void quantize_codes_i16(const float* x, std::size_t n, double scale,
                               std::int32_t lo, std::int32_t hi,
                               std::int16_t* out) {
  quantize_codes_i16_scalar(x, n, scale, lo, hi, out);
}

#endif

}  // namespace mlqr::simd
