// Exact row dedupe in the fused front-ends: FusedKernelTable::finalize()
// groups kernel rows that are exact copies or exact negations of each
// other, and scores()/scores_block() run one fused dot product per
// distinct row. The contract: every fanned-out score is bit-identical to
// accumulating that filter's own row, for the float and the int16 table,
// and a trained float/int16/int8 design computes the same features as a
// brute-force per-row reference read from its own serialized tables —
// built and after save -> load.
#include "dsp/fused_kernel_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/fixed_point.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "discrim/proposed.h"
#include "discrim/quantized_proposed.h"
#include "dsp/fused_frontend.h"
#include "dsp/quantized_frontend.h"
#include "readout/dataset.h"

namespace mlqr {
namespace {

/// Bitwise equality of two scores (float scores by bit pattern, so +0 and
/// -0 differ).
bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}
bool same_bits(std::int64_t a, std::int64_t b) { return a == b; }

template <typename Sample>
Sample random_sample(Rng& rng) {
  if constexpr (std::is_same_v<Sample, float>)
    return static_cast<float>(rng.normal(0.0, 1.0));
  else
    return static_cast<std::int16_t>(
        static_cast<std::int64_t>(rng.uniform_index(40001)) - 20000);
}

/// The next representable sample above x: one ULP for float, one code
/// for int16.
template <typename Sample>
Sample one_step_up(Sample x) {
  if constexpr (std::is_same_v<Sample, float>)
    return std::nextafter(x, std::numeric_limits<float>::infinity());
  else
    return static_cast<std::int16_t>(x + 1);
}

/// Builds a table from rows given as (real, imaginary) sample vectors.
template <typename Sample>
FusedKernelTable<Sample> make_table(
    const std::vector<std::pair<std::vector<Sample>, std::vector<Sample>>>&
        rows) {
  FusedKernelTable<Sample> table;
  const std::size_t n = rows.front().first.size();
  table.assign(rows.size(), n);
  for (std::size_t f = 0; f < rows.size(); ++f)
    for (std::size_t t = 0; t < n; ++t) {
      table.row_r(f)[t] = rows[f].first[t];
      table.row_i(f)[t] = rows[f].second[t];
    }
  table.finalize();
  return table;
}

template <typename Sample>
std::vector<Sample> negated(std::vector<Sample> v) {
  for (Sample& x : v) x = static_cast<Sample>(-x);
  return v;
}

/// Distinct-row index whose fan-out serves filter f, and whether it
/// negates; -1 if no fan-out lists f (a bug).
template <typename Sample>
std::pair<long, bool> served_by(const FusedKernelTable<Sample>& table,
                                std::size_t f) {
  for (std::size_t d = 0; d < table.distinct_rows(); ++d)
    for (const FusedFanOut& o : table.fan_out(d))
      if (o.filter == f) return {static_cast<long>(d), o.negate};
  return {-1, false};
}

template <typename Sample>
class FusedKernelTableTest : public ::testing::Test {};
using SampleTypes = ::testing::Types<float, std::int16_t>;
TYPED_TEST_SUITE(FusedKernelTableTest, SampleTypes);

TYPED_TEST(FusedKernelTableTest, CopiesAndNegationsAliasNearMissesDoNot) {
  using Sample = TypeParam;
  Rng rng(11);
  const std::size_t n = 37;
  std::vector<Sample> ar(n), ai(n), br(n), bi(n);
  for (std::size_t t = 0; t < n; ++t) {
    ar[t] = random_sample<Sample>(rng);
    ai[t] = random_sample<Sample>(rng);
    br[t] = random_sample<Sample>(rng);
    bi[t] = random_sample<Sample>(rng);
  }
  std::vector<Sample> near_r = ar;  // one step off in the real row
  near_r[n / 2] = one_step_up(near_r[n / 2]);
  std::vector<Sample> near_neg_i = negated(ai);  // negation, one step off
  near_neg_i[n - 1] = one_step_up(near_neg_i[n - 1]);

  const FusedKernelTable<Sample> table = make_table<Sample>({
      {ar, ai},                      // 0: A
      {br, bi},                      // 1: B
      {ar, ai},                      // 2: copy of A
      {negated(ar), negated(ai)},    // 3: negation of A
      {near_r, ai},                  // 4: A one step off
      {negated(ar), near_neg_i},     // 5: -A one step off
      {negated(br), negated(bi)},    // 6: negation of B
  });
  EXPECT_EQ(table.distinct_rows(), 4u);
  EXPECT_EQ(served_by(table, 0), (std::pair<long, bool>{0, false}));
  EXPECT_EQ(served_by(table, 1), (std::pair<long, bool>{1, false}));
  EXPECT_EQ(served_by(table, 2), (std::pair<long, bool>{0, false}));
  EXPECT_EQ(served_by(table, 3), (std::pair<long, bool>{0, true}));
  EXPECT_EQ(served_by(table, 4), (std::pair<long, bool>{2, false}));
  EXPECT_EQ(served_by(table, 5), (std::pair<long, bool>{3, false}));
  EXPECT_EQ(served_by(table, 6), (std::pair<long, bool>{1, true}));
  // Each fan-out leads with its own, non-negated row, in filter order.
  for (std::size_t d = 0; d < table.distinct_rows(); ++d) {
    const auto fan = table.fan_out(d);
    ASSERT_FALSE(fan.empty());
    EXPECT_FALSE(fan.front().negate);
    for (std::size_t k = 1; k < fan.size(); ++k)
      EXPECT_LT(fan[k - 1].filter, fan[k].filter);
  }

  // Before finalize() every row is its own distinct row.
  FusedKernelTable<Sample> raw;
  raw.assign(7, n);
  EXPECT_EQ(raw.distinct_rows(), 7u);

  // load_rows() derives the same groups from the same bytes.
  std::stringstream ss;
  table.save_rows(ss);
  FusedKernelTable<Sample> loaded;
  loaded.load_rows(ss, n);
  ASSERT_EQ(loaded.distinct_rows(), table.distinct_rows());
  for (std::size_t f = 0; f < 7; ++f)
    EXPECT_EQ(served_by(loaded, f), served_by(table, f)) << "filter " << f;
}

TYPED_TEST(FusedKernelTableTest, AllZeroRowsAliasAsCopies) {
  using Sample = TypeParam;
  Rng rng(12);
  const std::size_t n = 9;
  std::vector<Sample> zero(n, Sample{}), ar(n), ai(n);
  for (std::size_t t = 0; t < n; ++t) {
    ar[t] = random_sample<Sample>(rng);
    ai[t] = random_sample<Sample>(rng);
  }
  // A float row of -0 is equal by value to the +0 row (and scores +0).
  const FusedKernelTable<Sample> table = make_table<Sample>(
      {{zero, zero}, {ar, ai}, {zero, zero}, {negated(zero), zero}});
  EXPECT_EQ(table.distinct_rows(), 2u);
  EXPECT_EQ(served_by(table, 2), (std::pair<long, bool>{0, false}));
  EXPECT_EQ(served_by(table, 3), (std::pair<long, bool>{0, false}));

  std::vector<Sample> xi(n), xq(n);
  for (std::size_t t = 0; t < n; ++t) {
    xi[t] = random_sample<Sample>(rng);
    xq[t] = random_sample<Sample>(rng);
  }
  table.scores(xi.data(), xq.data(), [&](std::size_t f, auto score) {
    EXPECT_TRUE(same_bits(score, table.accumulate(f, xi.data(), xq.data())))
        << "filter " << f;
  });

  // A table of nothing but zero rows is one distinct row.
  EXPECT_EQ(make_table<Sample>({{zero, zero}, {zero, zero}}).distinct_rows(),
            1u);
}

TYPED_TEST(FusedKernelTableTest, NegationOfACopyPointsAtTheFirstRow) {
  using Sample = TypeParam;
  Rng rng(13);
  const std::size_t n = 16;
  std::vector<Sample> ar(n), ai(n), br(n), bi(n);
  for (std::size_t t = 0; t < n; ++t) {
    ar[t] = random_sample<Sample>(rng);
    ai[t] = random_sample<Sample>(rng);
    br[t] = random_sample<Sample>(rng);
    bi[t] = random_sample<Sample>(rng);
  }
  // B, A, A, -A: row 3 negates row 2, itself a copy of row 1.
  const FusedKernelTable<Sample> table = make_table<Sample>(
      {{br, bi}, {ar, ai}, {ar, ai}, {negated(ar), negated(ai)}});
  ASSERT_EQ(table.distinct_rows(), 2u);
  const auto fan = table.fan_out(1);
  ASSERT_EQ(fan.size(), 3u);
  EXPECT_EQ(fan[0].filter, 1u);
  EXPECT_FALSE(fan[0].negate);
  EXPECT_EQ(fan[1].filter, 2u);
  EXPECT_FALSE(fan[1].negate);
  EXPECT_EQ(fan[2].filter, 3u);
  EXPECT_TRUE(fan[2].negate);
}

TYPED_TEST(FusedKernelTableTest, FanOutMatchesPerRowAccumulateBitForBit) {
  using Sample = TypeParam;
  using Table = FusedKernelTable<Sample>;
  Rng rng(14);
  // An odd length exercises every kernel's vector tail.
  const std::size_t n = 203;
  std::vector<std::vector<Sample>> base_r(4, std::vector<Sample>(n)),
      base_i(4, std::vector<Sample>(n));
  for (std::size_t b = 0; b < 4; ++b)
    for (std::size_t t = 0; t < n; ++t) {
      base_r[b][t] = random_sample<Sample>(rng);
      base_i[b][t] = random_sample<Sample>(rng);
    }
  // 13 rows over 4 distinct ones, copies and negations interleaved.
  std::vector<std::pair<std::vector<Sample>, std::vector<Sample>>> rows;
  for (std::size_t f = 0; f < 13; ++f) {
    const std::size_t b = (f * 7) % 4;
    const bool neg = f % 3 == 1;
    rows.push_back({neg ? negated(base_r[b]) : base_r[b],
                    neg ? negated(base_i[b]) : base_i[b]});
  }
  const Table table = make_table<Sample>(rows);
  ASSERT_EQ(table.distinct_rows(), 4u);

  // Traces: random ones, the all-zero trace, and one with xi = Im A and
  // xq = Re A, whose score against +-A is exactly 0 (the real and
  // imaginary chains sum the same products).
  std::vector<std::vector<Sample>> tr_i, tr_q;
  for (std::size_t s = 0; s < 9; ++s) {
    std::vector<Sample> xi(n), xq(n);
    for (std::size_t t = 0; t < n; ++t) {
      xi[t] = random_sample<Sample>(rng);
      xq[t] = random_sample<Sample>(rng);
    }
    tr_i.push_back(xi);
    tr_q.push_back(xq);
  }
  tr_i.push_back(std::vector<Sample>(n, Sample{}));
  tr_q.push_back(std::vector<Sample>(n, Sample{}));
  tr_i.push_back(base_i[0]);
  tr_q.push_back(base_r[0]);
  const std::size_t zero_shot = tr_i.size() - 1;
  EXPECT_TRUE(same_bits(table.accumulate(0, tr_i[zero_shot].data(),
                                         tr_q[zero_shot].data()),
                        typename Table::Accum{}))
      << "the exact-zero trace does not score +0";

  for (std::size_t s = 0; s < tr_i.size(); ++s) {
    std::vector<int> calls(rows.size(), 0);
    table.scores(tr_i[s].data(), tr_q[s].data(),
                 [&](std::size_t f, typename Table::Accum score) {
                   ++calls[f];
                   EXPECT_TRUE(same_bits(
                       score,
                       table.accumulate(f, tr_i[s].data(), tr_q[s].data())))
                       << "shot " << s << " filter " << f;
                 });
    for (std::size_t f = 0; f < rows.size(); ++f) EXPECT_EQ(calls[f], 1);
  }

  // Every block size, over a window of the traces that includes the
  // exact-zero one.
  for (std::size_t nb = 1; nb <= Table::kMaxShotBlock; ++nb) {
    const std::size_t s0 = tr_i.size() - nb;
    std::vector<const Sample*> xi, xq;
    for (std::size_t s = s0; s < tr_i.size(); ++s) {
      xi.push_back(tr_i[s].data());
      xq.push_back(tr_q[s].data());
    }
    std::vector<int> calls(rows.size() * nb, 0);
    table.scores_block(
        nb, xi.data(), xq.data(),
        [&](std::size_t f, std::size_t s, typename Table::Accum score) {
          ++calls[f * nb + s];
          EXPECT_TRUE(same_bits(score, table.accumulate(f, xi[s], xq[s])))
              << "block " << nb << " shot " << s << " filter " << f;
        });
    for (int c : calls) EXPECT_EQ(c, 1);
  }
}

// ------------------------------------------------------ trained designs --

/// A small two-qubit dataset (so scarce leakage makes RMF/EMF kernels fall
/// back to exact QMF copies and negations) with its float design and both
/// integer presets.
struct Designs {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  QuantizedProposedDiscriminator int16;
  Quantized8ProposedDiscriminator int8;

  static const Designs& get() {
    static const Designs designs = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 120;
      cfg.seed = 616161;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 1;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      QuantizedProposedDiscriminator q16 =
          QuantizedProposedDiscriminator::quantize(p, ds.shots, ds.train_idx);
      Quantized8ProposedDiscriminator q8 =
          Quantized8ProposedDiscriminator::quantize(p, ds.shots, ds.train_idx);
      return Designs{std::move(ds), std::move(p), std::move(q16),
                     std::move(q8)};
    }();
    return designs;
  }
};

template <typename D>
D round_trip(const D& d) {
  std::stringstream ss;
  d.save(ss);
  return D::load(ss);
}

template <typename Frontend>
std::string frontend_bytes(const Frontend& fe) {
  std::stringstream ss;
  fe.save(ss);
  return ss.str();
}

/// The traces every design test scores: the first 23 held-out frames, so
/// the largest batch below spans several shot blocks and a partial one.
std::vector<const IqTrace*> probe_traces() {
  const Designs& d = Designs::get();
  std::vector<const IqTrace*> out;
  for (std::size_t k = 0; k < 23; ++k)
    out.push_back(&d.ds.shots.traces[d.ds.test_idx.at(k)]);
  return out;
}

constexpr std::size_t kBatches[] = {1, 3, 8, 23};

/// Brute-force float features for one trace: every filter's own row,
/// scale and offset read back from the front-end's serialized tables.
std::vector<float> float_reference(const std::string& bytes,
                                   const IqTrace& trace) {
  std::stringstream ss(bytes);
  const std::size_t n = io::read_u64(ss);
  io::read_u64(ss);  // qubits
  const std::vector<float> kr = io::read_vec_f32(ss);
  const std::vector<float> ki = io::read_vec_f32(ss);
  const std::vector<float> scale = io::read_vec_f32(ss);
  const std::vector<float> offset = io::read_vec_f32(ss);
  std::vector<float> out(scale.size());
  for (std::size_t f = 0; f < out.size(); ++f) {
    const float acc = simd::fused_dot_f32(kr.data() + f * n, ki.data() + f * n,
                                          trace.i.data(), trace.q.data(), n);
    const float z = acc * scale[f] + offset[f];
    out[f] = std::clamp(z, -kMaxAbsFeatureZ, kMaxAbsFeatureZ);
  }
  return out;
}

/// Brute-force integer feature codes for one trace, likewise.
std::vector<std::int32_t> int_reference(const std::string& bytes,
                                        const IqTrace& trace) {
  std::stringstream ss(bytes);
  const std::size_t n = io::read_u64(ss);
  io::read_u64(ss);  // qubits
  const FixedPointFormat trace_fmt = load_format(ss);
  const FixedPointFormat feature_fmt = load_format(ss);
  load_format(ss);  // LO grid
  const std::size_t n_filters = io::read_u64(ss);
  for (std::size_t f = 0; f < n_filters; ++f) load_format(ss);
  const auto kr = io::read_vec_int<std::int16_t>(ss);
  const auto ki = io::read_vec_int<std::int16_t>(ss);
  const std::vector<double> scale = io::read_vec_f64(ss);
  const std::vector<double> offset = io::read_vec_f64(ss);
  std::vector<std::int16_t> xi(n), xq(n);
  const double code_scale = std::ldexp(1.0, trace_fmt.frac_bits);
  const auto lo = static_cast<std::int32_t>(trace_fmt.min_code());
  const auto hi = static_cast<std::int32_t>(trace_fmt.max_code());
  simd::quantize_codes_i16_scalar(trace.i.data(), n, code_scale, lo, hi,
                                  xi.data());
  simd::quantize_codes_i16_scalar(trace.q.data(), n, code_scale, lo, hi,
                                  xq.data());
  std::vector<std::int32_t> out(n_filters);
  for (std::size_t f = 0; f < n_filters; ++f) {
    const std::int64_t acc = simd::fused_dot_i16_scalar(
        kr.data() + f * n, ki.data() + f * n, xi.data(), xq.data(), n);
    const double z = std::clamp(
        static_cast<double>(acc) * scale[f] + offset[f],
        -static_cast<double>(kMaxAbsFeatureZ),
        static_cast<double>(kMaxAbsFeatureZ));
    out[f] = static_cast<std::int32_t>(to_code(z, feature_fmt));
  }
  return out;
}

void expect_float_frontend_matches_reference(const FusedFrontend& fe,
                                             const char* what) {
  const std::string bytes = frontend_bytes(fe);
  const std::vector<const IqTrace*> traces = probe_traces();
  const std::size_t nf = fe.n_filters();
  InferenceScratch scratch;
  for (std::size_t s = 0; s < traces.size(); ++s) {
    const std::vector<float> ref = float_reference(bytes, *traces[s]);
    fe.features_into(*traces[s], scratch);
    ASSERT_EQ(scratch.features.size(), nf);
    for (std::size_t f = 0; f < nf; ++f)
      EXPECT_TRUE(same_bits(scratch.features[f], ref[f]))
          << what << " per-shot shot " << s << " filter " << f;
  }
  for (std::size_t batch : kBatches) {
    // A wider stride than n_filters: fan-out must not write past a row.
    const std::size_t stride = nf + 2;
    std::vector<float> block(batch * stride, -7.0f);
    fe.features_block_into(batch, traces.data(), block.data(), stride);
    for (std::size_t s = 0; s < batch; ++s) {
      const std::vector<float> ref = float_reference(bytes, *traces[s]);
      for (std::size_t f = 0; f < nf; ++f)
        EXPECT_TRUE(same_bits(block[s * stride + f], ref[f]))
            << what << " batch " << batch << " shot " << s << " filter " << f;
      EXPECT_EQ(block[s * stride + nf], -7.0f) << "stride slot overwritten";
    }
  }
}

void expect_int_frontend_matches_reference(const QuantizedFrontend& fe,
                                           const char* what) {
  const std::string bytes = frontend_bytes(fe);
  const std::vector<const IqTrace*> traces = probe_traces();
  const std::size_t nf = fe.n_filters();
  InferenceScratch scratch;
  for (std::size_t s = 0; s < traces.size(); ++s) {
    const std::vector<std::int32_t> ref = int_reference(bytes, *traces[s]);
    fe.features_into(*traces[s], scratch);
    ASSERT_EQ(scratch.int_features.size(), nf);
    for (std::size_t f = 0; f < nf; ++f)
      EXPECT_EQ(scratch.int_features[f], ref[f])
          << what << " per-shot shot " << s << " filter " << f;
  }
  for (std::size_t batch : kBatches) {
    const std::size_t stride = nf + 2;
    std::vector<std::int32_t> block(batch * stride, -7);
    fe.features_block_into(batch, traces.data(), scratch, block.data(),
                           stride);
    for (std::size_t s = 0; s < batch; ++s) {
      const std::vector<std::int32_t> ref = int_reference(bytes, *traces[s]);
      for (std::size_t f = 0; f < nf; ++f)
        EXPECT_EQ(block[s * stride + f], ref[f])
            << what << " batch " << batch << " shot " << s << " filter " << f;
      EXPECT_EQ(block[s * stride + nf], -7) << "stride slot overwritten";
    }
  }
}

TEST(FusedKernelTableDesign, FloatFrontendMatchesPerRowReference) {
  const ProposedDiscriminator& built = Designs::get().proposed;
  const FusedFrontend& fe = built.fused_frontend();
  // The scarce-leakage bank must actually alias, or this proves nothing.
  ASSERT_LT(fe.distinct_filters(), fe.n_filters());
  expect_float_frontend_matches_reference(fe, "built");

  const ProposedDiscriminator reloaded = round_trip(built);
  const FusedFrontend& re = reloaded.fused_frontend();
  EXPECT_EQ(re.distinct_filters(), fe.distinct_filters());
  EXPECT_EQ(frontend_bytes(re), frontend_bytes(fe));
  expect_float_frontend_matches_reference(re, "reloaded");
}

template <typename Design>
void check_int_design(const Design& built) {
  const QuantizedFrontend& fe = built.frontend();
  ASSERT_LT(fe.distinct_filters(), fe.n_filters());
  expect_int_frontend_matches_reference(fe, "built");

  const Design reloaded = round_trip(built);
  const QuantizedFrontend& re = reloaded.frontend();
  EXPECT_EQ(re.distinct_filters(), fe.distinct_filters());
  EXPECT_EQ(frontend_bytes(re), frontend_bytes(fe));
  expect_int_frontend_matches_reference(re, "reloaded");
}

TEST(FusedKernelTableDesign, Int16FrontendMatchesPerRowReference) {
  check_int_design(Designs::get().int16);
}

TEST(FusedKernelTableDesign, Int8FrontendMatchesPerRowReference) {
  check_int_design(Designs::get().int8);
}

}  // namespace
}  // namespace mlqr
