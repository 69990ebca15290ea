// SIMD-vs-scalar parity for common/simd.h — the contract the inference
// rewrite rests on: integer kernels are bit-exact against the scalar
// twins (exact split-int32 and int64 accumulators survive any vector
// reassociation),
// float kernels stay within a small relative error of a double-precision
// reference, and the trace-code quantizer matches to_code()'s
// round-half-even semantics bit for bit. The scalar twins are compiled on
// every platform, so this suite exercises both sides of the dispatch
// regardless of the build's tier.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mlqr {
namespace {

// Vector-width tails matter most: cover below/at/above every tier's lane
// count (4, 8, 16) plus the production kernel length.
const std::size_t kLengths[] = {0, 1, 3, 4, 7, 8, 15, 16, 17, 31, 33, 500};

std::vector<float> random_floats(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

/// Random int16 codes in [lo, hi].
std::vector<std::int16_t> random_codes(Rng& rng, std::size_t n, int lo,
                                       int hi) {
  std::vector<std::int16_t> v(n);
  for (std::int16_t& x : v)
    x = static_cast<std::int16_t>(
        lo + static_cast<int>(rng.uniform() * (hi - lo + 1)));
  return v;
}

TEST(Simd, TierIsKnown) {
  const std::string t = simd::tier();
  EXPECT_TRUE(t == "avx512-vnni" || t == "avx-vnni" || t == "avx2" ||
              t == "sse2" || t == "neon" || t == "scalar")
      << t;
}

TEST(Simd, DotI16BitExact) {
  Rng rng(11);
  for (std::size_t n : kLengths) {
    // `a` models kernel/weight codes: fit_format keeps them off -2^15.
    const std::vector<std::int16_t> a = random_codes(rng, n, -32767, 32767);
    const std::vector<std::int16_t> b = random_codes(rng, n, -32768, 32767);
    EXPECT_EQ(simd::dot_i16(a.data(), b.data(), n),
              simd::dot_i16_scalar(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(Simd, DotI16ExtremeOperandsBitExact) {
  // Worst case the contract admits: every product is 32767 * -32768 — the
  // most negative reachable madd pair sums, across a length long enough
  // that int32 lane accumulation (if any crept in) would wrap.
  const std::size_t n = 4096;
  std::vector<std::int16_t> a(n, 32767), b(n, -32768);
  EXPECT_EQ(simd::dot_i16(a.data(), b.data(), n),
            simd::dot_i16_scalar(a.data(), b.data(), n));
  EXPECT_EQ(simd::dot_i16(a.data(), b.data(), n),
            static_cast<std::int64_t>(n) * (32767LL * -32768LL));
  // And the most positive: -32767 * -32768.
  for (auto& x : a) x = -32767;
  EXPECT_EQ(simd::dot_i16(a.data(), b.data(), n),
            static_cast<std::int64_t>(n) * (32767LL * 32768LL));
}

TEST(Simd, FusedDotI16BitExact) {
  Rng rng(12);
  for (std::size_t n : kLengths) {
    const std::vector<std::int16_t> kr = random_codes(rng, n, -32767, 32767);
    const std::vector<std::int16_t> ki = random_codes(rng, n, -32767, 32767);
    const std::vector<std::int16_t> xi = random_codes(rng, n, -32768, 32767);
    const std::vector<std::int16_t> xq = random_codes(rng, n, -32768, 32767);
    EXPECT_EQ(simd::fused_dot_i16(kr.data(), ki.data(), xi.data(), xq.data(), n),
              simd::fused_dot_i16_scalar(kr.data(), ki.data(), xi.data(),
                                         xq.data(), n))
        << "n=" << n;
  }
}

TEST(Simd, FusedDotI16StripBitExact) {
  // The strip-mined widening must be bit-identical to the scalar loop for
  // every strip the caller contract admits: kernel codes bounded by
  // max_abs, strip * 2 * max_abs * 2^15 <= 2^31 - 1. Cover narrow codes
  // with deep strips, full-range codes (strip collapses to 1), and strips
  // that do not divide the block count.
  Rng rng(21);
  const struct {
    std::int16_t max_abs;
    std::size_t strip;
  } kCases[] = {{2047, 16}, {2047, 7}, {127, 256}, {32767, 1}, {511, 3}};
  for (const auto& c : kCases) {
    for (std::size_t n : kLengths) {
      const std::vector<std::int16_t> kr =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      const std::vector<std::int16_t> ki =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      const std::vector<std::int16_t> xi = random_codes(rng, n, -32768, 32767);
      const std::vector<std::int16_t> xq = random_codes(rng, n, -32768, 32767);
      EXPECT_EQ(simd::fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                          xq.data(), n, c.strip),
                simd::fused_dot_i16_scalar(kr.data(), ki.data(), xi.data(),
                                           xq.data(), n))
          << "n=" << n << " strip=" << c.strip << " max_abs=" << c.max_abs;
    }
  }
}

TEST(Simd, FusedDotI16StripExtremeOperandsBitExact) {
  // Saturate the strip bound exactly: max_abs = 2047 admits strip 16
  // (16 * 2 * 2047 * 32768 = 2146435072 <= 2^31 - 1). Every product at
  // the extreme corner so any premature int32 wrap would show.
  const std::size_t n = 4096;
  std::vector<std::int16_t> kr(n, 2047), ki(n, -2047);
  std::vector<std::int16_t> xi(n, -32768), xq(n, -32768);
  const std::int64_t expect =
      static_cast<std::int64_t>(n) * (2047LL * -32768LL - 2047LL * 32768LL);
  EXPECT_EQ(simd::fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                      xq.data(), n, 16),
            expect);
  EXPECT_EQ(simd::fused_dot_i16_strip(kr.data(), ki.data(), xi.data(),
                                      xq.data(), n, 16),
            simd::fused_dot_i16_scalar(kr.data(), ki.data(), xi.data(),
                                       xq.data(), n));
}

TEST(Simd, FusedDotI16StripX4BitExact) {
  // The four-stream kernel must emit exactly what four scalar calls emit,
  // for deep strips, the strip < 4 fallback, and full-range trace codes.
  Rng rng(22);
  const struct {
    std::int16_t max_abs;
    std::size_t strip;
  } kCases[] = {{2047, 16}, {511, 3}, {32767, 1}, {127, 256}};
  for (const auto& c : kCases) {
    for (std::size_t n : kLengths) {
      const std::vector<std::int16_t> kr =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      const std::vector<std::int16_t> ki =
          random_codes(rng, n, -c.max_abs, c.max_abs);
      std::vector<std::int16_t> xi[4], xq[4];
      const std::int16_t* xi_ptr[4];
      const std::int16_t* xq_ptr[4];
      for (int s = 0; s < 4; ++s) {
        xi[s] = random_codes(rng, n, -32768, 32767);
        xq[s] = random_codes(rng, n, -32768, 32767);
        xi_ptr[s] = xi[s].data();
        xq_ptr[s] = xq[s].data();
      }
      std::int64_t out[4];
      simd::fused_dot_i16_strip_x4(kr.data(), ki.data(), xi_ptr, xq_ptr, n,
                                   c.strip, out);
      for (int s = 0; s < 4; ++s)
        EXPECT_EQ(out[s], simd::fused_dot_i16_scalar(kr.data(), ki.data(),
                                                     xi_ptr[s], xq_ptr[s], n))
            << "n=" << n << " s=" << s << " strip=" << c.strip;
    }
  }
}

TEST(Simd, SplitAccumulatorWorstCaseAndPastFlushBound) {
  // The x86 kernels accumulate each madd partial p as 65536 * (p >> 16) +
  // (p & 0xFFFF) in int32 lanes, exact for 2^12 flushes per lane, then
  // recombine in int64. Drive both halves to their extremes for exactly
  // 2^12 flushes per lane (n = 2^12 * 8 on SSE2, 2^12 * 16 on AVX2) and
  // far past that bound, and compare with the scalar twins and closed
  // forms.
  const std::size_t kFlushes = std::size_t{1} << 12;
  for (std::size_t n : {kFlushes * 8, kFlushes * 16, kFlushes * 128 + 5}) {
    const auto nn = static_cast<std::int64_t>(n);
    // High half at its bound: p = 2 * 32767 * 32768 = 65536 * 32767.
    std::vector<std::int16_t> a(n, -32767), b(n, -32768);
    EXPECT_EQ(simd::dot_i16(a.data(), b.data(), n), nn * 32767 * 32768)
        << "n=" << n;
    // Low half at its bound: p = -1, so p & 0xFFFF = 65535 every flush.
    std::vector<std::int16_t> ones(n, 1), minus(n, 0);
    for (std::size_t i = 0; i < n; i += 2) minus[i] = -1;
    EXPECT_EQ(simd::dot_i16(ones.data(), minus.data(), n), -(nn + 1) / 2)
        << "n=" << n;

    // Fused: pr at +(2^31 - 2^16) and pi at -(2^31 - 2^16) per madd, so
    // the high halves differ by 65535 per flush and pr - pi overflows
    // int32 outright; then the low halves' difference at 65535.
    const std::vector<std::int16_t> kpos(n, 32767), zero(n, 0);
    std::vector<std::int16_t> kneg(n, -32767);
    const std::int64_t hi_expect = 2 * nn * 32767 * 32768;
    EXPECT_EQ(
        simd::fused_dot_i16(kneg.data(), kpos.data(), b.data(), b.data(), n),
        hi_expect)
        << "n=" << n;
    EXPECT_EQ(simd::fused_dot_i16_strip(kneg.data(), kpos.data(), b.data(),
                                        b.data(), n, 1),
              hi_expect)
        << "n=" << n;
    EXPECT_EQ(simd::fused_dot_i16(ones.data(), zero.data(), minus.data(),
                                  zero.data(), n),
              -(nn + 1) / 2)
        << "n=" << n;
    const std::int16_t* xi[4] = {b.data(), minus.data(), b.data(),
                                 minus.data()};
    const std::int16_t* xq[4] = {b.data(), zero.data(), zero.data(),
                                 b.data()};
    std::int64_t out[4];
    simd::fused_dot_i16_strip_x4(kneg.data(), kpos.data(), xi, xq, n, 1, out);
    for (int s = 0; s < 4; ++s)
      EXPECT_EQ(out[s], simd::fused_dot_i16_scalar(kneg.data(), kpos.data(),
                                                   xi[s], xq[s], n))
          << "n=" << n << " s=" << s;

    // Strip 2 with max|code| = 16383 (2 * 2 * 16383 * 2^15 < 2^31): every
    // flush carries a two-block int32 strip near its bound.
    std::fill(kneg.begin(), kneg.end(), std::int16_t{-16383});
    std::vector<std::int16_t> kpos2(n, 16383);
    const std::int64_t strip_expect = 2 * nn * 16383 * 32768;
    EXPECT_EQ(simd::fused_dot_i16_strip(kneg.data(), kpos2.data(), b.data(),
                                        b.data(), n, 2),
              strip_expect)
        << "n=" << n;
    // Strip 4 in the four-stream kernel (two-block pr - pi strips) needs
    // max|code| <= 8191.
    std::fill(kneg.begin(), kneg.end(), std::int16_t{-8191});
    std::fill(kpos2.begin(), kpos2.end(), std::int16_t{8191});
    simd::fused_dot_i16_strip_x4(kneg.data(), kpos2.data(), xi, xq, n, 4, out);
    for (int s = 0; s < 4; ++s)
      EXPECT_EQ(out[s], simd::fused_dot_i16_scalar(kneg.data(), kpos2.data(),
                                                   xi[s], xq[s], n))
          << "n=" << n << " s=" << s << " strip 4";
  }
}

/// Splits weight codes as w = 256 * hi + lo (hi in [-128, 127], lo in
/// [0, 255]) — the layout IntegerMlp<int16_t> derives for its batched
/// heads.
void split_weights(const std::vector<std::int16_t>& w,
                   std::vector<std::int16_t>& hi,
                   std::vector<std::int16_t>& lo) {
  hi.resize(w.size());
  lo.resize(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    hi[i] = static_cast<std::int16_t>(w[i] >> 8);
    lo[i] = static_cast<std::int16_t>(w[i] & 0xFF);
  }
}

TEST(Simd, MaddSplitPairsBitExact) {
  // Vector vs scalar twin across pair counts up to the exactness bound and
  // shot counts below/at/above every tier's 4-vector shot group, with a
  // padded pair stride; 256 * hi + lo must equal the exact int64 dot.
  Rng rng(23);
  const std::size_t kPairs[] = {0, 1, 2, 5, 23, simd::kMaxSplitPairs};
  const std::size_t kShots[] = {0, 1, 3, 4, 7, 8, 9, 15, 16, 17,
                                31, 32, 33, 64, 129};
  for (std::size_t pairs : kPairs) {
    const std::vector<std::int16_t> w =
        random_codes(rng, 2 * pairs, -32767, 32767);
    std::vector<std::int16_t> wh, wl;
    split_weights(w, wh, wl);
    for (std::size_t shots : kShots) {
      const std::size_t stride = 2 * shots + 6;
      const std::vector<std::int16_t> act =
          random_codes(rng, pairs * stride, -32768, 32767);
      std::vector<std::int32_t> hi(shots), lo(shots), hi_ref(shots),
          lo_ref(shots);
      simd::madd_split_pairs_i16(wh.data(), wl.data(), pairs, act.data(),
                                 stride, shots, hi.data(), lo.data());
      simd::madd_split_pairs_i16_scalar(wh.data(), wl.data(), pairs,
                                        act.data(), stride, shots,
                                        hi_ref.data(), lo_ref.data());
      for (std::size_t s = 0; s < shots; ++s) {
        EXPECT_EQ(hi[s], hi_ref[s]) << "pairs=" << pairs << " s=" << s;
        EXPECT_EQ(lo[s], lo_ref[s]) << "pairs=" << pairs << " s=" << s;
        std::int64_t exact = 0;
        for (std::size_t i = 0; i < 2 * pairs; ++i)
          exact += std::int64_t{w[i]} * act[i / 2 * stride + 2 * s + i % 2];
        EXPECT_EQ(256 * std::int64_t{hi[s]} + lo[s], exact)
            << "pairs=" << pairs << " shots=" << shots << " s=" << s;
      }
    }
  }
}

TEST(Simd, MaddSplitPairsExtremeOperandsExact) {
  // The bound itself: kMaxSplitPairs pairs, weights at +-32767 (hi 127 /
  // -128, lo 255 / 1) and activations at -32768 or 32767 — the low half
  // reaches 127 * 2 * 255 * 32768, just under 2^31.
  const std::size_t pairs = simd::kMaxSplitPairs;
  const std::size_t shots = 37;
  for (std::int16_t wv : {std::int16_t{32767}, std::int16_t{-32767}}) {
    for (std::int16_t xv : {std::int16_t{-32768}, std::int16_t{32767}}) {
      const std::vector<std::int16_t> w(2 * pairs, wv);
      std::vector<std::int16_t> wh, wl;
      split_weights(w, wh, wl);
      const std::vector<std::int16_t> act(pairs * 2 * shots, xv);
      std::vector<std::int32_t> hi(shots), lo(shots);
      simd::madd_split_pairs_i16(wh.data(), wl.data(), pairs, act.data(),
                                 2 * shots, shots, hi.data(), lo.data());
      for (std::size_t s = 0; s < shots; ++s)
        EXPECT_EQ(256 * std::int64_t{hi[s]} + lo[s],
                  static_cast<std::int64_t>(2 * pairs) * wv * xv)
            << "w=" << wv << " x=" << xv << " s=" << s;
    }
  }
}

TEST(Simd, DotU8I8BitExact) {
  Rng rng(15);
  for (std::size_t n : kLengths) {
    std::vector<std::uint8_t> u(n);
    std::vector<std::int8_t> w(n);
    for (auto& x : u)
      x = static_cast<std::uint8_t>(rng.uniform() * 256.0);
    for (auto& x : w)
      x = static_cast<std::int8_t>(-128 + static_cast<int>(rng.uniform() * 256.0));
    EXPECT_EQ(simd::dot_u8i8(u.data(), w.data(), n),
              simd::dot_u8i8_scalar(u.data(), w.data(), n))
        << "n=" << n;
  }
}

TEST(Simd, DotU8I8ExtremeOperandsBitExact) {
  // Worst cases the int8 datapath admits: u = 255 against w = -128 / 127,
  // long enough that a saturating maddubs-style intermediate (the AVX2
  // trap) or int16 lane accumulation would diverge from the exact sum.
  const std::size_t n = 4096;
  std::vector<std::uint8_t> u(n, 255);
  std::vector<std::int8_t> w(n, -128);
  EXPECT_EQ(simd::dot_u8i8(u.data(), w.data(), n),
            static_cast<std::int32_t>(n) * (255 * -128));
  EXPECT_EQ(simd::dot_u8i8(u.data(), w.data(), n),
            simd::dot_u8i8_scalar(u.data(), w.data(), n));
  for (auto& x : w) x = 127;
  EXPECT_EQ(simd::dot_u8i8(u.data(), w.data(), n),
            static_cast<std::int32_t>(n) * (255 * 127));
  EXPECT_EQ(simd::dot_u8i8(u.data(), w.data(), n),
            simd::dot_u8i8_scalar(u.data(), w.data(), n));
  // Alternating extremes exercise in-register pair summation order.
  for (std::size_t i = 0; i < n; ++i)
    w[i] = (i & 1) ? std::int8_t{127} : std::int8_t{-128};
  EXPECT_EQ(simd::dot_u8i8(u.data(), w.data(), n),
            simd::dot_u8i8_scalar(u.data(), w.data(), n));
}

TEST(Simd, AddBiasVariantsMatchScalar) {
  Rng rng(16);
  for (std::size_t n : kLengths) {
    const std::vector<float> z0 = random_floats(rng, n);
    const std::vector<float> b = random_floats(rng, n);
    std::vector<float> simd_z = z0, scalar_z = z0;
    simd::add_bias_f32(simd_z.data(), b.data(), n);
    simd::add_bias_f32_scalar(scalar_z.data(), b.data(), n);
    // z + b is a single rounding in both paths: bit-identical.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(simd_z[i], scalar_z[i]) << "add_bias n=" << n << " i=" << i;
    simd_z = z0;
    scalar_z = z0;
    simd::add_bias_relu_f32(simd_z.data(), b.data(), n);
    simd::add_bias_relu_f32_scalar(scalar_z.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(simd_z[i], scalar_z[i])
          << "add_bias_relu n=" << n << " i=" << i;
      EXPECT_GE(simd_z[i], 0.0f);
    }
  }
}

TEST(Simd, DotF32WithinRelativeError) {
  Rng rng(13);
  for (std::size_t n : kLengths) {
    const std::vector<float> a = random_floats(rng, n);
    const std::vector<float> b = random_floats(rng, n);
    double ref = 0.0;
    double abs_sum = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      ref += static_cast<double>(a[i]) * b[i];
      abs_sum += std::abs(static_cast<double>(a[i]) * b[i]);
    }
    const double tol = 1e-5 * abs_sum;
    EXPECT_NEAR(simd::dot_f32(a.data(), b.data(), n), ref, tol) << "n=" << n;
    EXPECT_NEAR(simd::dot_f32_scalar(a.data(), b.data(), n), ref, tol)
        << "n=" << n;
  }
}

TEST(Simd, FusedDotF32WithinRelativeError) {
  Rng rng(14);
  for (std::size_t n : kLengths) {
    const std::vector<float> kr = random_floats(rng, n);
    const std::vector<float> ki = random_floats(rng, n);
    const std::vector<float> xi = random_floats(rng, n);
    const std::vector<float> xq = random_floats(rng, n);
    double ref = 0.0, abs_sum = 1.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double term = static_cast<double>(kr[t]) * xi[t] -
                          static_cast<double>(ki[t]) * xq[t];
      ref += term;
      abs_sum += std::abs(static_cast<double>(kr[t]) * xi[t]) +
                 std::abs(static_cast<double>(ki[t]) * xq[t]);
    }
    const double tol = 1e-5 * abs_sum;
    EXPECT_NEAR(simd::fused_dot_f32(kr.data(), ki.data(), xi.data(), xq.data(), n),
                ref, tol)
        << "n=" << n;
    EXPECT_NEAR(simd::fused_dot_f32_scalar(kr.data(), ki.data(), xi.data(),
                                           xq.data(), n),
                ref, tol)
        << "n=" << n;
  }
}

TEST(Simd, AxpyVariantsMatchScalar) {
  Rng rng(15);
  for (std::size_t n : kLengths) {
    const std::vector<float> x0 = random_floats(rng, n);
    const std::vector<float> x1 = random_floats(rng, n);
    const std::vector<float> x2 = random_floats(rng, n);
    const std::vector<float> x3 = random_floats(rng, n);
    const std::vector<float> y0 = random_floats(rng, n);
    const float a[4] = {0.5f, -1.25f, 2.0f, 0.0f};

    std::vector<float> y_simd = y0, y_scalar = y0;
    simd::axpy_f32(n, a[0], x0.data(), y_simd.data());
    simd::axpy_f32_scalar(n, a[0], x0.data(), y_scalar.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(y_simd[i], y_scalar[i], 1e-6f) << "axpy n=" << n;

    y_simd = y0;
    y_scalar = y0;
    simd::axpy4_f32(n, a, x0.data(), x1.data(), x2.data(), x3.data(),
                    y_simd.data());
    simd::axpy4_f32_scalar(n, a, x0.data(), x1.data(), x2.data(), x3.data(),
                           y_scalar.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(y_simd[i], y_scalar[i], 1e-5f) << "axpy4 n=" << n;
  }
}

TEST(Simd, Dot4MatchesSingleDots) {
  Rng rng(16);
  for (std::size_t n : kLengths) {
    const std::vector<float> s = random_floats(rng, n);
    const std::vector<float> b0 = random_floats(rng, n);
    const std::vector<float> b1 = random_floats(rng, n);
    const std::vector<float> b2 = random_floats(rng, n);
    const std::vector<float> b3 = random_floats(rng, n);
    float out[4];
    simd::dot4_f32(s.data(), b0.data(), b1.data(), b2.data(), b3.data(), n,
                   out);
    const float singles[4] = {simd::dot_f32(s.data(), b0.data(), n),
                              simd::dot_f32(s.data(), b1.data(), n),
                              simd::dot_f32(s.data(), b2.data(), n),
                              simd::dot_f32(s.data(), b3.data(), n)};
    // Row r runs dot_f32(shared, b_r)'s lane accumulation and reduction.
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[r]),
                std::bit_cast<std::uint32_t>(singles[r]))
          << "n=" << n << " r=" << r;
  }
}

TEST(Simd, QuantizeCodesMatchesToCode) {
  // The vector quantizer must reproduce to_code()'s round-half-even and
  // saturation exactly (under the default FP environment, which the
  // caller guards). Mix normal values, halfway ties and out-of-range
  // saturating values.
  const FixedPointFormat fmt{16, 10};
  const double scale = std::ldexp(1.0, fmt.frac_bits);
  Rng rng(17);
  for (std::size_t n : kLengths) {
    std::vector<float> x = random_floats(rng, n, 8.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 1) {  // Exact halfway tie on the code grid.
        const double code = std::floor(rng.uniform() * 100.0) - 50.0;
        x[i] = static_cast<float>((code + 0.5) / scale);
      } else if (i % 5 == 2) {  // Saturates.
        x[i] = (rng.uniform() < 0.5 ? -1.0f : 1.0f) * 1e6f;
      }
    }
    std::vector<std::int16_t> fast(n), slow(n);
    simd::quantize_codes_i16(x.data(), n, scale,
                             static_cast<std::int32_t>(fmt.min_code()),
                             static_cast<std::int32_t>(fmt.max_code()),
                             fast.data());
    simd::quantize_codes_i16_scalar(x.data(), n, scale,
                                    static_cast<std::int32_t>(fmt.min_code()),
                                    static_cast<std::int32_t>(fmt.max_code()),
                                    slow.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast[i], slow[i]) << "n=" << n << " i=" << i << " x=" << x[i];
      EXPECT_EQ(slow[i], static_cast<std::int16_t>(
                             to_code(static_cast<double>(x[i]), fmt)))
          << "n=" << n << " i=" << i << " x=" << x[i];
    }
  }
}

TEST(Simd, QuantizeCodesScalarIsRoundingModeImmune) {
  // The scalar twin is the fallback the front-end selects when the FP
  // environment is not round-to-nearest; it must match to_code in every
  // mode (the vector path is never invoked there, so it has no such
  // obligation).
  const FixedPointFormat fmt{16, 8};
  const double scale = std::ldexp(1.0, fmt.frac_bits);
  const float x[] = {0.12345f, -3.5f / 256.0f, 2.5f / 256.0f, 200.0f,
                     -200.0f};
  const std::size_t n = sizeof(x) / sizeof(x[0]);
  std::int16_t nearest[n], upward[n];
  simd::quantize_codes_i16_scalar(x, n, scale,
                                  static_cast<std::int32_t>(fmt.min_code()),
                                  static_cast<std::int32_t>(fmt.max_code()),
                                  nearest);
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  simd::quantize_codes_i16_scalar(x, n, scale,
                                  static_cast<std::int32_t>(fmt.min_code()),
                                  static_cast<std::int32_t>(fmt.max_code()),
                                  upward);
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(nearest[i], upward[i]) << i;
}

}  // namespace
}  // namespace mlqr
