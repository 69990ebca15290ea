// The integer datapath's contract: at W=16 it tracks the float path's
// fidelity within 0.5% absolute, its labels are bit-identical across batch
// sizes and thread counts through ReadoutEngine, and its calibrated
// formats — not assumed widths — feed the FPGA resource model.
#include "discrim/quantized_proposed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "nn/trainer.h"
#include "pipeline/readout_engine.h"
#include "readout/dataset.h"
#include "readout/experiment.h"

namespace mlqr {
namespace {

/// Shared small two-qubit dataset + trained float design + W=16 integer
/// twin (training dominates runtime, so it happens once).
struct Fixture {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  QuantizedProposedDiscriminator quantized;

  static const Fixture& get() {
    static const Fixture fx = [] {
      DatasetConfig cfg;
      cfg.chip = ChipProfile::test_two_qubit();
      cfg.shots_per_basis_state = 220;
      cfg.seed = 515151;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 8;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      QuantizedProposedDiscriminator q = QuantizedProposedDiscriminator::quantize(
          p, ds.shots, ds.train_idx, QuantizationConfig{});
      return Fixture{std::move(ds), std::move(p), std::move(q)};
    }();
    return fx;
  }
};

TEST(QuantizedInference, FidelityWithinHalfPercentOfFloat) {
  const Fixture& fx = Fixture::get();
  const FidelityReport f = evaluate_on_test(make_backend(fx.proposed), fx.ds);
  const FidelityReport i = evaluate_on_test(make_backend(fx.quantized), fx.ds);
  EXPECT_NEAR(i.geometric_mean_fidelity(), f.geometric_mean_fidelity(), 0.005)
      << "int16 datapath drifted from the float reference";
}

TEST(QuantizedInference, LabelAgreementWithFloatPath) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine fe(make_backend(fx.proposed));
  ReadoutEngine ie(make_backend(fx.quantized));
  const EngineBatch fb = fe.process_batch(fx.ds.shots.traces);
  const EngineBatch ib = ie.process_batch(fx.ds.shots.traces);
  ASSERT_EQ(fb.labels.size(), ib.labels.size());
  std::size_t agree = 0;
  for (std::size_t k = 0; k < fb.labels.size(); ++k)
    agree += fb.labels[k] == ib.labels[k];
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(fb.labels.size()),
            0.95);
}

TEST(QuantizedInference, BitIdenticalAcrossBatchSizes) {
  const Fixture& fx = Fixture::get();
  const std::vector<IqTrace>& traces = fx.ds.shots.traces;
  ReadoutEngine whole(make_backend(fx.quantized));
  const EngineBatch big = whole.process_batch(traces);

  ReadoutEngine stream(make_backend(fx.quantized));
  std::vector<int> streamed;
  for (const IqTrace& t : traces) {
    const EngineBatch one = stream.process_batch({&t, 1});
    streamed.insert(streamed.end(), one.labels.begin(), one.labels.end());
  }
  EXPECT_EQ(big.labels, streamed);
}

TEST(QuantizedInference, BitIdenticalAcrossThreadCounts) {
  const Fixture& fx = Fixture::get();
  EngineConfig serial;
  serial.threads = 1;
  ReadoutEngine one(make_backend(fx.quantized), serial);

  EngineConfig parallel;
  parallel.threads = 4;
  parallel.min_shots_per_thread = 1;  // Force a real fan-out.
  ReadoutEngine many(make_backend(fx.quantized), parallel);

  const EngineBatch a = one.process_batch(fx.ds.shots.traces);
  const EngineBatch b = many.process_batch(fx.ds.shots.traces);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(QuantizedInference, ClassifyMatchesClassifyInto) {
  const Fixture& fx = Fixture::get();
  ReadoutEngine engine(make_backend(fx.quantized));
  const EngineBatch batch = engine.process_batch(
      std::span<const IqTrace>(fx.ds.shots.traces.data(), 25));
  for (std::size_t s = 0; s < 25; ++s) {
    const std::vector<int> expected = fx.quantized.classify(fx.ds.shots.traces[s]);
    const std::span<const int> got = batch.shot_labels(s);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t q = 0; q < expected.size(); ++q)
      EXPECT_EQ(got[q], expected[q]) << "shot " << s << " qubit " << q;
  }
}

TEST(QuantizedInference, FrontendTracksFloatFeatures) {
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch float_scratch, int_scratch;
  for (std::size_t s = 0; s < 10; ++s) {
    const IqTrace& tr = fx.ds.shots.traces[s];
    fx.proposed.features_into(tr, float_scratch);
    fe.features_into(tr, int_scratch);
    ASSERT_EQ(int_scratch.int_features.size(), float_scratch.features.size());
    for (std::size_t j = 0; j < float_scratch.features.size(); ++j) {
      const double decoded =
          from_code(int_scratch.int_features[j], fe.feature_format());
      EXPECT_NEAR(decoded, static_cast<double>(float_scratch.features[j]), 0.05)
          << "shot " << s << " feature " << j;
    }
  }
}

TEST(QuantizedInference, LoTableIsUnitMagnitude) {
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  for (std::size_t q = 0; q < fe.num_qubits(); ++q) {
    const std::span<const std::int16_t> lut = fe.lo_table(q);
    ASSERT_EQ(lut.size(), fe.n_samples() * 2);
    for (std::size_t t = 0; t < fe.n_samples(); ++t) {
      const double re = from_code(lut[2 * t], fe.lo_format());
      const double im = from_code(lut[2 * t + 1], fe.lo_format());
      EXPECT_NEAR(std::hypot(re, im), 1.0, 2e-4) << "qubit " << q << " t " << t;
    }
  }
}

TEST(QuantizedInference, IntegerMlpTracksFloatLogits) {
  // Hand-built tiny network with deterministic weights: the integer logits,
  // decoded, must track the float logits within a few grid steps.
  Mlp mlp({4, 6, 3});
  Rng rng(7);
  mlp.init_weights(rng);
  std::vector<float> calib;
  Rng data_rng(8);
  for (int r = 0; r < 64; ++r)
    for (int c = 0; c < 4; ++c)
      calib.push_back(static_cast<float>(data_rng.normal(0.0, 2.0)));

  const FixedPointFormat in_fmt = fit_format(-8.0, 8.0, 16);
  const IntegerMlp<std::int16_t> q = IntegerMlp<std::int16_t>::quantize(
      mlp, calib, in_fmt, QuantizationConfig{});

  std::vector<std::int32_t> codes(4);
  std::vector<std::int64_t> logits;
  std::vector<std::int16_t> a, b;
  for (int r = 0; r < 64; ++r) {
    std::vector<float> row(calib.begin() + r * 4, calib.begin() + (r + 1) * 4);
    // Feed the float path the decoded codes so both see the same inputs.
    for (int c = 0; c < 4; ++c) {
      codes[c] = static_cast<std::int32_t>(to_code(row[c], in_fmt));
      row[c] = static_cast<float>(from_code(codes[c], in_fmt));
    }
    const std::vector<float> f = mlp.logits(row);
    q.logits_into(codes, logits, a, b);
    ASSERT_EQ(logits.size(), f.size());
    for (std::size_t j = 0; j < f.size(); ++j)
      EXPECT_NEAR(static_cast<double>(logits[j]) * q.logit_resolution(),
                  static_cast<double>(f[j]), 0.02)
          << "row " << r << " logit " << j;
  }
}

/// Both presets, by head code type; the integer-head tests below run once
/// per width.
template <typename Code>
class IntegerHeads : public ::testing::Test {};
using Presets = ::testing::Types<std::int16_t, std::int8_t>;
struct PresetName {
  template <typename Code>
  static std::string GetName(int) {
    return "Int" + std::to_string(IntegerWidth<Code>::kCodeBits);
  }
};
TYPED_TEST_SUITE(IntegerHeads, Presets, PresetName);

/// The FPGA-schedule reference: every layer recomputed from the stored
/// codes with plain scalar int64 loops.
template <typename Head>
std::vector<std::int64_t> naive_logits(const Head& head,
                                       std::span<const std::int32_t> x) {
  std::vector<std::int64_t> cur(x.begin(), x.end());
  const QuantizationConfig& cfg = head.config();
  for (std::size_t l = 0; l < head.layers().size(); ++l) {
    const auto& layer = head.layers()[l];
    const bool last = l + 1 == head.layers().size();
    std::vector<std::int64_t> next(layer.out);
    for (std::size_t j = 0; j < layer.out; ++j) {
      std::int64_t acc = layer.b[j];
      for (std::size_t i = 0; i < layer.in; ++i)
        acc += static_cast<std::int64_t>(layer.w[j * layer.in + i]) * cur[i];
      acc = saturate_to_bits(acc, cfg.accum_bits);
      if (!last) {
        if (acc < 0) acc = 0;
        const int shift = layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                          head.layers()[l + 1].in_fmt.frac_bits;
        acc = saturate_to_bits(shift_round_half_even(acc, shift),
                               cfg.activation_bits);
      }
      next[j] = acc;
    }
    cur = std::move(next);
  }
  return cur;
}

/// An integer code in [lo, hi] that lands on either bound a quarter of the
/// time each — the adversarial mix for the batched kernels.
int extreme_code(Rng& rng, int lo, int hi) {
  const double u = rng.uniform();
  if (u < 0.25) return lo;
  if (u < 0.5) return hi;
  return std::min(hi, lo + static_cast<int>(rng.uniform() * (hi - lo + 1)));
}

/// The adversarial setup of one head width: weight codes at the kernels'
/// bounds (+-32767 at int16, -128/127 at int8), input codes at both ends
/// of the activation grid, an accumulator width the extremes saturate
/// beside the widest one the width admits, and a bias spread scaled with
/// the product range.
template <typename Code>
struct Extremes {
  using Width = IntegerWidth<Code>;
  static constexpr int kBits = Width::kCodeBits;
  static constexpr int kCodeMax = (1 << (kBits - 1)) - 1;
  static constexpr int kWeightLo = Width::kMinWeightCode;
  static constexpr int kInLo = -kCodeMax - 1;
  static constexpr int kAccumBits[2] = {2 * kBits, Width::kMaxAccumBits};
  static double bias_sd() { return std::ldexp(1e8, 2 * (kBits - 16)); }
};

/// Head shapes for the adversarial cases: odd widths cover the padded last
/// int16 pair, 301 inputs exceed simd::kMaxSplitPairs pairs.
const std::vector<std::vector<std::size_t>> kAdversarialShapes = {
    {45, 22, 11, 3}, {7, 5, 3}, {301, 9, 3}, {1, 2}};

/// An integer head over `dims` with adversarial weight codes (a quarter
/// each at either bound), minted through load() — the only way to choose
/// codes freely. Formats: inputs <W,8>, weights <W,12>, so a hidden layer
/// requantizes by a 12-bit shift.
template <typename Code>
IntegerMlp<Code> adversarial_head(const std::vector<std::size_t>& dims,
                                  int accum_bits, Rng& rng) {
  using X = Extremes<Code>;
  std::stringstream ss;
  QuantizationConfig cfg;
  cfg.weight_bits = X::kBits;
  cfg.activation_bits = X::kBits;
  cfg.accum_bits = accum_bits;
  save_quantization_config(ss, cfg);
  io::write_u64(ss, dims.size() - 1);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    io::write_u64(ss, dims[l]);
    io::write_u64(ss, dims[l + 1]);
    save_format(ss, FixedPointFormat{X::kBits, 12});
    save_format(ss, FixedPointFormat{X::kBits, 8});
    std::vector<Code> w(dims[l] * dims[l + 1]);
    for (Code& c : w)
      c = static_cast<Code>(extreme_code(rng, X::kWeightLo, X::kCodeMax));
    std::vector<typename IntegerMlp<Code>::Logit> b(dims[l + 1]);
    for (auto& c : b)
      c = static_cast<typename IntegerMlp<Code>::Logit>(
          rng.normal(0.0, X::bias_sd()));
    io::write_vec_int(ss, w);
    io::write_vec_int(ss, b);
  }
  return IntegerMlp<Code>::load(ss);
}

TYPED_TEST(IntegerHeads, MlpForwardBitExactVsNaiveReference) {
  // The SIMD dot products inside logits_into must leave the integer
  // contract untouched: recomputing every layer with plain scalar loops
  // (the FPGA-schedule reference) yields bit-identical logits — on a
  // calibrated head over real features, and on adversarial heads whose
  // weight and input codes sit at the width's bounds.
  using Head = IntegerMlp<TypeParam>;
  using X = Extremes<TypeParam>;
  const Fixture& fx = Fixture::get();
  const auto d = IntegerProposedDiscriminator<TypeParam>::quantize(
      fx.proposed, fx.ds.shots, fx.ds.train_idx);
  std::vector<typename Head::Logit> logits;
  std::vector<typename Head::Act> a, b;
  const auto expect_naive = [&](const Head& head,
                                std::span<const std::int32_t> x,
                                const std::string& where) {
    head.logits_into(x, logits, a, b);
    const std::vector<std::int64_t> ref = naive_logits(head, x);
    ASSERT_EQ(logits.size(), ref.size());
    for (std::size_t j = 0; j < ref.size(); ++j)
      EXPECT_EQ(std::int64_t{logits[j]}, ref[j]) << where << " logit " << j;
  };

  InferenceScratch scratch;
  for (std::size_t s = 0; s < 25; ++s) {
    d.frontend().features_into(fx.ds.shots.traces[s], scratch);
    expect_naive(d.head(0), scratch.int_features, "shot " + std::to_string(s));
  }
  Rng rng(4343);
  for (const std::vector<std::size_t>& dims : kAdversarialShapes) {
    for (int accum_bits : X::kAccumBits) {
      const Head q = adversarial_head<TypeParam>(dims, accum_bits, rng);
      std::vector<std::int32_t> x(dims.front());
      for (int r = 0; r < 16; ++r) {
        for (std::int32_t& c : x) c = extreme_code(rng, X::kInLo, X::kCodeMax);
        expect_naive(q, x,
                     "in " + std::to_string(dims.front()) + " accum " +
                         std::to_string(accum_bits) + " row " +
                         std::to_string(r));
      }
    }
  }
}

TYPED_TEST(IntegerHeads, BatchedHeadsMatchPredictOnAdversarialCodes) {
  // classify_batch_into runs the shot-lane kernel (split-weight pmaddwd at
  // int16, one int32 pass at int8); predict runs the per-shot dot chain.
  // Weight and input codes at the width's bounds put every int32 partial
  // at its bound, and the batch sizes cover partial vectors and shot
  // blocks.
  using Head = IntegerMlp<TypeParam>;
  using X = Extremes<TypeParam>;
  Rng rng(4242);
  for (const std::vector<std::size_t>& dims : kAdversarialShapes) {
    for (int accum_bits : X::kAccumBits) {
      const Head q = adversarial_head<TypeParam>(dims, accum_bits, rng);
      const std::size_t in_dim = dims.front();
      for (std::size_t batch : {1u, 3u, 64u, 129u}) {
        std::vector<std::int32_t> features(batch * in_dim);
        for (std::int32_t& c : features)
          c = extreme_code(rng, X::kInLo, X::kCodeMax);
        std::vector<int> labels(batch * 2, -1);
        std::vector<typename Head::Act> act_a, act_b;
        std::vector<typename Head::Logit> logits;
        q.classify_batch_into(batch, features.data(), act_a, act_b, logits,
                              labels.data(), 2);
        for (std::size_t s = 0; s < batch; ++s) {
          const std::span<const std::int32_t> row(
              features.data() + s * in_dim, in_dim);
          EXPECT_EQ(labels[s * 2], q.predict(row, logits, act_a, act_b))
              << "in " << in_dim << " accum " << accum_bits << " batch "
              << batch << " shot " << s;
          EXPECT_EQ(labels[s * 2 + 1], -1) << "stride slot overwritten";
        }
      }
    }
  }
}

/// A one-qubit QuantizedFrontend with six kernel rows of adversarial codes
/// (a quarter each at +-max_code; row 0 is entirely +max_code real and
/// -max_code imaginary), minted through load(). Trace grid <16,10>;
/// feature grid <32,16> so the requant keeps enough bits that an inexact
/// accumulator would show; filter f scales its score by 2^-(24 + 2f).
QuantizedFrontend adversarial_frontend(std::size_t n_samples,
                                       std::int16_t max_code, Rng& rng,
                                       std::vector<std::int16_t>& kr,
                                       std::vector<std::int16_t>& ki,
                                       std::vector<double>& scale) {
  constexpr std::size_t kFilters = 6;
  std::stringstream ss;
  io::write_u64(ss, n_samples);
  io::write_u64(ss, 1);
  save_format(ss, FixedPointFormat{16, 10});
  save_format(ss, FixedPointFormat{32, 16});
  save_format(ss, FixedPointFormat{16, 14});
  io::write_u64(ss, kFilters);
  for (std::size_t f = 0; f < kFilters; ++f)
    save_format(ss, FixedPointFormat{16, 15});
  kr.resize(kFilters * n_samples);
  ki.resize(kFilters * n_samples);
  for (std::size_t k = 0; k < kr.size(); ++k) {
    const bool pinned = k < n_samples;
    kr[k] = pinned ? max_code
                   : static_cast<std::int16_t>(
                         extreme_code(rng, -max_code, max_code));
    ki[k] = pinned ? static_cast<std::int16_t>(-max_code)
                   : static_cast<std::int16_t>(
                         extreme_code(rng, -max_code, max_code));
  }
  io::write_vec_int(ss, kr);
  io::write_vec_int(ss, ki);
  scale.resize(kFilters);
  for (std::size_t f = 0; f < kFilters; ++f)
    scale[f] = std::ldexp(1.0, -24 - 2 * static_cast<int>(f));
  io::write_vec_f64(ss, scale);
  io::write_vec_f64(ss, std::vector<double>(kFilters, 0.0));
  io::write_vec_int(ss, std::vector<std::int16_t>(2 * n_samples, 0));
  return QuantizedFrontend::load(ss);
}

TEST(QuantizedInference, BlockFrontendMatchesPerShotOnAdversarialCodes) {
  // features_block_into scores four shots per kernel-row load
  // (fused_dot_i16_strip_x4); features_into scores one. Kernel codes at
  // +-32767 (strip 1: every block flushes into the split halves) and at
  // +-2047 (strip 16: int32 strips first), trace codes saturated at
  // -32768 / 32767, and an odd sample count for the vector tails. Both
  // paths must also match a scalar int64 reference of the fused score.
  Rng rng(777);
  const std::size_t n = 509;
  for (std::int16_t max_code : {std::int16_t{32767}, std::int16_t{2047}}) {
    std::vector<std::int16_t> kr, ki;
    std::vector<double> scale;
    const QuantizedFrontend fe =
        adversarial_frontend(n, max_code, rng, kr, ki, scale);
    const std::size_t n_filters = fe.n_filters();
    for (std::size_t batch : {1u, 3u, 64u, 129u}) {
      std::vector<IqTrace> traces(batch, IqTrace(n));
      std::vector<const IqTrace*> ptrs;
      for (IqTrace& tr : traces) {
        for (std::size_t t = 0; t < n; ++t) {
          const double u = rng.uniform();
          tr.i[t] = u < 0.25 ? 1e6f : u < 0.5 ? -1e6f
                                              : static_cast<float>(
                                                    rng.normal(0.0, 8.0));
          tr.q[t] = u < 0.25 ? -1e6f : u < 0.5 ? 1e6f
                                               : static_cast<float>(
                                                     rng.normal(0.0, 8.0));
        }
        ptrs.push_back(&tr);
      }
      InferenceScratch block_scratch, shot_scratch;
      std::vector<std::int32_t> block(batch * n_filters);
      fe.features_block_into(batch, ptrs.data(), block_scratch, block.data(),
                             n_filters);
      for (std::size_t s = 0; s < batch; ++s) {
        fe.features_into(traces[s], shot_scratch);
        for (std::size_t f = 0; f < n_filters; ++f) {
          const std::int64_t acc = simd::fused_dot_i16_scalar(
              kr.data() + f * n, ki.data() + f * n,
              shot_scratch.int_trace_i.data(), shot_scratch.int_trace_q.data(),
              n);
          const double z = std::clamp(static_cast<double>(acc) * scale[f],
                                      -static_cast<double>(kMaxAbsFeatureZ),
                                      static_cast<double>(kMaxAbsFeatureZ));
          EXPECT_EQ(shot_scratch.int_features[f],
                    to_code(z, fe.feature_format()))
              << "max " << max_code << " shot " << s << " filter " << f;
          EXPECT_EQ(block[s * n_filters + f], shot_scratch.int_features[f])
              << "max " << max_code << " batch " << batch << " shot " << s
              << " filter " << f;
        }
      }
    }
  }
}

TEST(QuantizedInference, TraceCodesMatchToCode) {
  // Pass 0's vector quantizer against the semantic definition: every code
  // equals to_code() of the raw sample on the calibrated ADC grid.
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch scratch;
  for (std::size_t s = 0; s < 10; ++s) {
    const IqTrace& tr = fx.ds.shots.traces[s];
    fe.features_into(tr, scratch);
    ASSERT_EQ(scratch.int_trace_i.size(), fe.n_samples());
    for (std::size_t t = 0; t < fe.n_samples(); ++t) {
      EXPECT_EQ(scratch.int_trace_i[t],
                static_cast<std::int16_t>(to_code(
                    static_cast<double>(tr.i[t]), fe.trace_format())))
          << "shot " << s << " t " << t;
      EXPECT_EQ(scratch.int_trace_q[t],
                static_cast<std::int16_t>(to_code(
                    static_cast<double>(tr.q[t]), fe.trace_format())))
          << "shot " << s << " t " << t;
    }
  }
}

TEST(QuantizedInference, FrontendImmuneToRoundingMode) {
  // features_into guards its vector quantizer on the FP environment; a
  // hostile rounding mode must fall back to the scalar twin and produce
  // bit-identical features (to_code's fesetround-immunity contract).
  const Fixture& fx = Fixture::get();
  const QuantizedFrontend& fe = fx.quantized.frontend();
  InferenceScratch nearest, upward;
  const IqTrace& tr = fx.ds.shots.traces[3];
  fe.features_into(tr, nearest);
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  fe.features_into(tr, upward);
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  EXPECT_EQ(nearest.int_trace_i, upward.int_trace_i);
  EXPECT_EQ(nearest.int_trace_q, upward.int_trace_q);
  EXPECT_EQ(nearest.int_features, upward.int_features);
}

TEST(QuantizedInference, RejectsTooNarrowAccumulator) {
  Mlp mlp({4, 6, 3});
  Rng rng(7);
  mlp.init_weights(rng);
  std::vector<float> calib(4 * 8, 3.0f);
  const FixedPointFormat in_fmt{16, 11};
  QuantizationConfig cfg;
  cfg.accum_bits = 8;  // Cannot hold in_frac=11 plus any weight fraction.
  EXPECT_THROW(IntegerMlp<std::int16_t>::quantize(mlp, calib, in_fmt, cfg),
               Error);
}

TEST(QuantizedInference, CalibratedFormatsFeedResourceModel) {
  const Fixture& fx = Fixture::get();
  const CalibratedFormats fmts = fx.quantized.calibrated_formats();
  EXPECT_EQ(fmts.weight_bits, 16);
  EXPECT_EQ(fmts.accum_bits, 32);
  EXPECT_EQ(fmts.trace.total_bits, 16);
  EXPECT_GE(fmts.min_weight_frac_bits, 0);

  const DesignSpec spec = fx.quantized.design_spec();
  EXPECT_EQ(spec.hls.weight_bits, 16);
  EXPECT_EQ(spec.hls.accum_bits, 32);
  EXPECT_EQ(spec.demod_channels, fx.quantized.num_qubits());
  EXPECT_EQ(spec.nns.size(), fx.quantized.num_qubits());
  // Estimating the spec must work and scale with the calibrated width:
  // a W=8 twin of the same model is strictly cheaper in LUTs.
  QuantizationConfig w8;
  w8.weight_bits = 8;
  w8.activation_bits = 8;
  const QuantizedProposedDiscriminator q8 =
      QuantizedProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                               fx.ds.train_idx, w8);
  EXPECT_LT(estimate_design(q8.design_spec()).luts,
            estimate_design(spec).luts);
}

TEST(QuantizedInference, NarrowWidthsStillClassify) {
  // W=8 end-to-end: fidelity can degrade, but the path must stay sane
  // (legal labels, deterministic repeat).
  const Fixture& fx = Fixture::get();
  QuantizationConfig w8;
  w8.weight_bits = 8;
  w8.activation_bits = 8;
  const QuantizedProposedDiscriminator q8 =
      QuantizedProposedDiscriminator::quantize(fx.proposed, fx.ds.shots,
                                               fx.ds.train_idx, w8);
  const std::vector<int> once = q8.classify(fx.ds.shots.traces[0]);
  const std::vector<int> twice = q8.classify(fx.ds.shots.traces[0]);
  EXPECT_EQ(once, twice);
  for (int level : once) {
    EXPECT_GE(level, 0);
    EXPECT_LT(level, kNumLevels);
  }
}

}  // namespace
}  // namespace mlqr
