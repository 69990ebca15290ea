#include "nn/integer_mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "nn/dense_stack.h"

namespace mlqr {

namespace {

/// Shots per block of the batched heads.
constexpr std::size_t kShotBlock = 128;

/// Integer bits (excluding sign) needed to hold `bound`.
int int_bits_for(double bound) {
  int bits = 0;
  while (std::ldexp(1.0, bits) <= bound) ++bits;
  return bits;
}

// ---- The per-width kernel calls, one overload per IntegerWidth. ----------

/// sum_i w[i] * x[i] over stored activations, exact in int64 (the int8
/// activations still carry their +128 bias; Derived::init corrects it).
std::int64_t row_dot(const std::int16_t* w, const std::int16_t* x,
                     std::size_t n) {
  return simd::dot_i16(w, x, n);
}
std::int64_t row_dot(const std::int8_t* w, const std::uint8_t* x,
                     std::size_t n) {
  return simd::dot_u8i8(x, w, n);
}

/// Derives the split weights the int16 batched kernel consumes.
void split_weights(const IntegerDenseLayer<std::int16_t>& layer,
                   std::vector<std::int16_t>& hi,
                   std::vector<std::int16_t>& lo) {
  const std::size_t row = 2 * ((layer.in + 1) / 2);
  hi.assign(layer.out * row, 0);
  lo.assign(layer.out * row, 0);
  for (std::size_t j = 0; j < layer.out; ++j)
    for (std::size_t i = 0; i < layer.in; ++i) {
      const std::int16_t w = layer.w[j * layer.in + i];
      hi[j * row + i] = static_cast<std::int16_t>(w >> 8);
      lo[j * row + i] = static_cast<std::int16_t>(w & 0xFF);
    }
}
/// The int8 batched pass reads the codes directly.
void split_weights(const IntegerDenseLayer<std::int8_t>&,
                   std::vector<std::int16_t>&, std::vector<std::int16_t>&) {}

/// Sets acc[0, nb) to init plus output row j's products over one staged
/// shot block (pair rows of kPairWidth * kShotBlock codes).
///
/// int16: one pmaddwd against a broadcast split-weight pair advances a
/// whole vector of shots by two inputs; up to simd::kMaxSplitPairs pairs
/// accumulate exactly in int32 and recombine once in int64.
void accumulate_block(const IntegerDenseLayer<std::int16_t>& layer,
                      const std::int16_t* hi, const std::int16_t* lo,
                      std::size_t j, std::int64_t init,
                      const std::int16_t* act, std::size_t nb,
                      std::int64_t* acc) {
  constexpr std::size_t kPairRow = 2 * kShotBlock;
  const std::size_t pairs = (layer.in + 1) / 2;
  std::fill(acc, acc + nb, init);
  for (std::size_t p0 = 0; p0 < pairs; p0 += simd::kMaxSplitPairs) {
    const std::size_t np = std::min(simd::kMaxSplitPairs, pairs - p0);
    const std::size_t w0 = (j * pairs + p0) * 2;
    std::int32_t h[kShotBlock], l[kShotBlock];
    simd::madd_split_pairs_i16(hi + w0, lo + w0, np, act + p0 * kPairRow,
                               kPairRow, nb, h, l);
    for (std::size_t s = 0; s < nb; ++s)
      acc[s] += 256 * std::int64_t{h[s]} + l[s];
  }
}
/// int8: the weight broadcast against a contiguous row of shots. Every
/// |product| <= 255 * 128 and kMaxLayerWidth bound the int32 lane by 2^30,
/// so a single int32 pass is exact for any admissible layer.
void accumulate_block(const IntegerDenseLayer<std::int8_t>& layer,
                      const std::int16_t*, const std::int16_t*, std::size_t j,
                      std::int64_t init, const std::uint8_t* act,
                      std::size_t nb, std::int64_t* acc) {
  const std::int8_t* wrow = layer.w.data() + j * layer.in;
  std::int32_t acc32[kShotBlock];
  std::fill(acc32, acc32 + nb, 0);
  for (std::size_t i = 0; i < layer.in; ++i) {
    const std::int32_t w = wrow[i];
    const std::uint8_t* in_row = act + i * kShotBlock;
    for (std::size_t s = 0; s < nb; ++s) acc32[s] += w * in_row[s];
  }
  for (std::size_t s = 0; s < nb; ++s) acc[s] = init + acc32[s];
}

// ---- Shared checks. -------------------------------------------------------

template <typename Code>
void check_config(const QuantizationConfig& cfg) {
  constexpr int kBits = IntegerWidth<Code>::kCodeBits;
  constexpr int kAccum = IntegerWidth<Code>::kMaxAccumBits;
  MLQR_CHECK_MSG(cfg.weight_bits >= 2 && cfg.weight_bits <= kBits &&
                     cfg.activation_bits >= 2 && cfg.activation_bits <= kBits &&
                     cfg.accum_bits >= 8 && cfg.accum_bits <= kAccum,
                 "int" << kBits << " MLP needs weight and activation bits in "
                       << "[2, " << kBits << "] and accum_bits in [8, " << kAccum
                       << "], got W=" << cfg.weight_bits << " A="
                       << cfg.activation_bits << " ACC=" << cfg.accum_bits);
}

/// What every layer must satisfy, minted or loaded: the dimension chain,
/// a width the exact accumulation admits, an activation grid the storage
/// type holds, and weight codes the kernels accept.
template <typename Code>
void check_layer(const IntegerDenseLayer<Code>& l, std::size_t prev_out) {
  using Width = IntegerWidth<Code>;
  check_layer_dims(l.in, l.out, prev_out, "integer MLP");
  MLQR_CHECK_MSG(l.w.size() == l.in * l.out && l.b.size() == l.out,
                 "integer MLP layer payload does not match its dims");
  MLQR_CHECK_MSG(l.in <= Width::kMaxLayerWidth,
                 "integer MLP layer width " << l.in << " exceeds the exact "
                     "accumulation bound (" << Width::kMaxLayerWidth << ")");
  MLQR_CHECK_MSG(l.in_fmt.total_bits <= Width::kCodeBits,
                 "integer MLP activation grid is " << l.in_fmt.total_bits
                     << " bits wide, the datapath holds "
                     << Width::kCodeBits);
  for (Code w : l.w)
    MLQR_CHECK_MSG(w >= Width::kMinWeightCode,
                   "integer MLP weight code " << int{w}
                                              << " is not representable");
}

}  // namespace

template <typename Code>
IntegerMlp<Code> IntegerMlp<Code>::quantize(
    const Mlp& mlp, std::span<const float> calib_features,
    const FixedPointFormat& input_fmt, const QuantizationConfig& cfg) {
  check_config<Code>(cfg);
  const std::size_t n_layers = mlp.num_layers();
  MLQR_CHECK(n_layers > 0);
  const std::size_t in_dim = mlp.input_size();
  MLQR_CHECK(!calib_features.empty() && calib_features.size() % in_dim == 0);
  const std::size_t n_rows = calib_features.size() / in_dim;

  // Range calibration: float forward over the calibration rows, tracking
  // the largest |activation| entering each layer and the largest
  // |pre-activation| its accumulator must hold.
  std::vector<double> act_in_max(n_layers, 0.0);
  std::vector<double> pre_max(n_layers, 0.0);
  std::vector<double> cur, next;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const float* row = calib_features.data() + r * in_dim;
    cur.assign(row, row + in_dim);
    for (std::size_t l = 0; l < n_layers; ++l) {
      const DenseLayer layer = mlp.layer(l);
      for (double v : cur)
        act_in_max[l] = std::max(act_in_max[l], std::abs(v));
      next.assign(layer.out, 0.0);
      for (std::size_t j = 0; j < layer.out; ++j) {
        double acc = static_cast<double>(layer.b[j]);
        const float* w = layer.w.data() + j * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i)
          acc += static_cast<double>(w[i]) * cur[i];
        pre_max[l] = std::max(pre_max[l], std::abs(acc));
        next[j] = l + 1 < n_layers ? std::max(acc, 0.0) : acc;
      }
      cur.swap(next);
    }
  }

  IntegerMlp q;
  q.cfg_ = cfg;
  q.layers_.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const DenseLayer layer = mlp.layer(l);
    Layer ql;
    ql.in = layer.in;
    ql.out = layer.out;

    if (l == 0) {
      ql.in_fmt = input_fmt;
    } else {
      // 2x headroom over the calibrated range for fresh data; narrow widths
      // fall back to clipping rather than failing.
      const double bound = std::max(2.0 * act_in_max[l], 1.0);
      ql.in_fmt = saturating_format(-bound, bound, cfg.activation_bits);
    }

    double w_bound = 0.0;
    for (float w : layer.w)
      w_bound = std::max(w_bound, std::abs(static_cast<double>(w)));
    ql.weight_fmt = w_bound > 0.0
                        ? fit_format(-w_bound, w_bound, cfg.weight_bits)
                        : FixedPointFormat{cfg.weight_bits, cfg.weight_bits - 1};

    // The accumulator holds pre-activations at frac in+weight; narrow the
    // weight fraction until the calibrated range (2x headroom) provably
    // fits cfg.accum_bits, mirroring what an HLS accumulator-width report
    // would force at synthesis time.
    const int pre_bits = int_bits_for(std::max(2.0 * pre_max[l], 1.0));
    const int frac_budget = cfg.accum_bits - 1 - pre_bits;
    MLQR_CHECK_MSG(frac_budget >= ql.in_fmt.frac_bits,
                   "accum_bits=" << cfg.accum_bits
                                 << " too narrow for layer " << l
                                 << " (pre-activation range "
                                 << pre_max[l] << ")");
    ql.weight_fmt.frac_bits =
        std::min(ql.weight_fmt.frac_bits, frac_budget - ql.in_fmt.frac_bits);

    // fit_format over a symmetric range keeps |code| <= 2^(W-1)-1, inside
    // Code and above the forbidden -2^15; check_layer pins both below.
    ql.w.resize(layer.w.size());
    for (std::size_t i = 0; i < layer.w.size(); ++i)
      ql.w[i] = static_cast<Code>(
          to_code(static_cast<double>(layer.w[i]), ql.weight_fmt));
    // saturate_to_bits keeps every bias inside accum_bits <= the Logit
    // width, so the narrowing is exact.
    const int bias_frac = ql.in_fmt.frac_bits + ql.weight_fmt.frac_bits;
    ql.b.resize(layer.b.size());
    for (std::size_t i = 0; i < layer.b.size(); ++i)
      ql.b[i] = static_cast<Logit>(saturate_to_bits(
          static_cast<std::int64_t>(round_half_even(
              std::ldexp(static_cast<double>(layer.b[i]), bias_frac))),
          cfg.accum_bits));

    check_layer(ql, l == 0 ? 0 : q.layers_.back().out);
    q.layers_.push_back(std::move(ql));
  }
  q.derive();
  return q;
}

template <typename Code>
void IntegerMlp<Code>::derive() {
  derived_.assign(layers_.size(), {});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Derived& d = derived_[l];
    d.init.resize(layer.out);
    for (std::size_t j = 0; j < layer.out; ++j) {
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < layer.in; ++i)
        sum += layer.w[j * layer.in + i];
      d.init[j] = std::int64_t{layer.b[j]} - Width::kActBias * sum;
    }
    if (l + 1 < layers_.size()) {
      d.shift = layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                layers_[l + 1].in_fmt.frac_bits;
      // shift_round_half_even is defined for shift < 63, and a left shift
      // of a saturated accumulator (below 2^(accum_bits-1)) must stay
      // inside int64. Formats are only ever minted (quantize) or read
      // (load) right before this, so the rule holds at both sites.
      MLQR_CHECK_MSG(d.shift < 63 && cfg_.accum_bits - 1 - d.shift <= 62,
                     "integer MLP layer " << l << " requantizes by shift "
                         << d.shift << " at accum_bits=" << cfg_.accum_bits
                         << ", outside the exact int64 range");
    }
    split_weights(layer, d.hi, d.lo);
  }
}

template <typename Code>
void IntegerMlp<Code>::save(std::ostream& os) const {
  save_quantization_config(os, cfg_);
  io::write_u64(os, layers_.size());
  for (const Layer& l : layers_) {
    io::write_u64(os, l.in);
    io::write_u64(os, l.out);
    save_format(os, l.weight_fmt);
    save_format(os, l.in_fmt);
    io::write_vec_int(os, l.w);
    io::write_vec_int(os, l.b);
  }
}

template <typename Code>
IntegerMlp<Code> IntegerMlp<Code>::load(std::istream& is) {
  IntegerMlp q;
  q.cfg_ = load_quantization_config(is);
  check_config<Code>(q.cfg_);
  const std::size_t n_layers = io::read_count(is, 64);
  MLQR_CHECK_MSG(n_layers > 0, "corrupt integer MLP: zero layers");
  q.layers_.resize(n_layers);
  std::size_t prev_out = 0;
  for (Layer& l : q.layers_) {
    l.in = io::read_count(is);
    l.out = io::read_count(is);
    l.weight_fmt = load_format(is);
    l.in_fmt = load_format(is);
    l.w = io::read_vec_int<Code>(is);
    l.b = io::read_vec_int<Logit>(is);
    check_layer(l, prev_out);
    prev_out = l.out;
  }
  q.derive();
  return q;
}

/// The hidden-layer epilogue after the saturating clamp: ReLU in the
/// integer domain, the round-half-even shift onto the next grid, the
/// activation-width clamp, then the width's storage bias.
template <typename Code>
typename IntegerMlp<Code>::Act IntegerMlp<Code>::requantize(std::int64_t acc,
                                                            int shift) const {
  if (acc < 0) acc = 0;
  const std::int64_t code = saturate_to_bits(shift_round_half_even(acc, shift),
                                             cfg_.activation_bits);
  return static_cast<Act>(code + Width::kActBias);
}

template <typename Code>
void IntegerMlp<Code>::logits_into(std::span<const std::int32_t> x,
                                   std::vector<Logit>& logits,
                                   std::vector<Act>& act_a,
                                   std::vector<Act>& act_b) const {
  MLQR_CHECK_MSG(x.size() == input_size(),
                 "input size " << x.size() << " != " << input_size());
  // Input codes live on the first layer's in_fmt grid (at most kCodeBits
  // wide, check_layer), so code + kActBias lands exactly in Act.
  act_a.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    act_a[i] = static_cast<Act>(x[i] + Width::kActBias);
  std::vector<Act>* cur = &act_a;
  std::vector<Act>* next = &act_b;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const Derived& d = derived_[l];
    const bool last = l + 1 == layers_.size();
    if (last)
      logits.resize(layer.out);
    else
      next->resize(layer.out);
    for (std::size_t j = 0; j < layer.out; ++j) {
      // Exact int64 accumulation: the SIMD dots are bit-identical to the
      // scalar loop, so the saturate/shift requant chain sees the same
      // accumulator on every tier.
      const std::int64_t acc = saturate_to_bits(
          d.init[j] + row_dot(layer.w.data() + j * layer.in, cur->data(),
                              layer.in),
          cfg_.accum_bits);
      if (last)
        logits[j] = static_cast<Logit>(acc);
      else
        (*next)[j] = requantize(acc, d.shift);
    }
    std::swap(cur, next);
  }
}

template <typename Code>
void IntegerMlp<Code>::classify_batch_into(std::size_t batch,
                                           const std::int32_t* features,
                                           std::vector<Act>& act_a,
                                           std::vector<Act>& act_b,
                                           std::vector<Logit>& logits,
                                           int* labels,
                                           std::size_t label_stride) const {
  if (batch == 0) return;
  const std::size_t in_dim = input_size();
  const std::size_t out_dim = output_size();

  // Shot-lane schedule: within a block of up to kShotBlock shots,
  // activations live as input pairs per shot (one pair row of kPairRow
  // codes) so each weight broadcast advances a whole vector of shots. The
  // readout heads are narrow (tens of inputs), so per-shot dot products
  // spend most of their time in vector tails and horizontal reductions;
  // across shots every lane is full regardless of layer width. Integer
  // arithmetic is exact, so the reordering is bit-identical to logits_into
  // by construction.
  constexpr std::size_t kPair = Width::kPairWidth;
  constexpr std::size_t kPairRow = kPair * kShotBlock;
  std::size_t max_dim = in_dim;
  for (const Layer& layer : layers_) max_dim = std::max(max_dim, layer.out);
  act_a.resize((max_dim + kPair - 1) / kPair * kPairRow);
  act_b.resize((max_dim + kPair - 1) / kPair * kPairRow);
  logits.resize(out_dim * kShotBlock);
  // Code i of shot s in the paired layout. At int16 an odd width leaves the
  // last pair's second slot stale: its split weights are zero.
  const auto slot = [](std::size_t i, std::size_t s) {
    return i / kPair * kPairRow + kPair * s + i % kPair;
  };

  for (std::size_t s0 = 0; s0 < batch; s0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, batch - s0);
    // Stage the block paired, with the same value-preserving storage as
    // logits_into.
    for (std::size_t s = 0; s < nb; ++s)
      for (std::size_t i = 0; i < in_dim; ++i)
        act_a[slot(i, s)] =
            static_cast<Act>(features[(s0 + s) * in_dim + i] + Width::kActBias);
    std::vector<Act>* cur = &act_a;
    std::vector<Act>* next = &act_b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const Derived& d = derived_[l];
      const bool last = l + 1 == layers_.size();
      // A local, not d.shift: the uint8 activation stores may alias any
      // object, which would force a reload per (shot, output).
      const int shift = d.shift;
      for (std::size_t j = 0; j < layer.out; ++j) {
        std::int64_t acc[kShotBlock];
        accumulate_block(layer, d.hi.data(), d.lo.data(), j, d.init[j],
                         cur->data(), nb, acc);
        // Epilogue: the exact per-(shot, output) chain of logits_into.
        for (std::size_t s = 0; s < nb; ++s) {
          const std::int64_t a = saturate_to_bits(acc[s], cfg_.accum_bits);
          if (last)
            logits[j * kShotBlock + s] = static_cast<Logit>(a);
          else
            (*next)[slot(j, s)] = requantize(a, shift);
        }
      }
      std::swap(cur, next);
    }
    // Strided argmax over the transposed logits — same strictly-greater
    // tie-low rule as argmax_tie_low.
    for (std::size_t s = 0; s < nb; ++s) {
      std::size_t best = 0;
      for (std::size_t j = 1; j < out_dim; ++j)
        if (logits[j * kShotBlock + s] > logits[best * kShotBlock + s])
          best = j;
      labels[(s0 + s) * label_stride] = static_cast<int>(best);
    }
  }
}

template <typename Code>
int IntegerMlp<Code>::logit_frac_bits() const {
  MLQR_CHECK(!layers_.empty());
  const Layer& last = layers_.back();
  return last.in_fmt.frac_bits + last.weight_fmt.frac_bits;
}

template class IntegerMlp<std::int16_t>;
template class IntegerMlp<std::int8_t>;

}  // namespace mlqr
