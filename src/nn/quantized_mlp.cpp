#include "nn/quantized_mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "nn/dense_stack.h"

namespace mlqr {

namespace {

/// Integer bits (excluding sign) needed to hold `bound`.
int int_bits_for(double bound) {
  int bits = 0;
  while (std::ldexp(1.0, bits) <= bound) ++bits;
  return bits;
}

}  // namespace

QuantizedMlp QuantizedMlp::quantize(const Mlp& mlp,
                                    std::span<const float> calib_features,
                                    const FixedPointFormat& input_fmt,
                                    const QuantizationConfig& cfg) {
  MLQR_CHECK(cfg.weight_bits >= 2 && cfg.weight_bits <= 16);
  MLQR_CHECK(cfg.activation_bits >= 2 && cfg.activation_bits <= 16);
  MLQR_CHECK(cfg.accum_bits >= 8 && cfg.accum_bits <= 63);
  const std::vector<DenseLayer>& fl = mlp.layers();
  MLQR_CHECK(!fl.empty());
  const std::size_t in_dim = mlp.input_size();
  MLQR_CHECK(!calib_features.empty() && calib_features.size() % in_dim == 0);
  const std::size_t n_rows = calib_features.size() / in_dim;

  // Range calibration: float forward over the calibration rows, tracking
  // the largest |activation| entering each layer and the largest
  // |pre-activation| its accumulator must hold.
  std::vector<double> act_in_max(fl.size(), 0.0);
  std::vector<double> pre_max(fl.size(), 0.0);
  std::vector<double> cur, next;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const float* row = calib_features.data() + r * in_dim;
    cur.assign(row, row + in_dim);
    for (std::size_t l = 0; l < fl.size(); ++l) {
      const DenseLayer& layer = fl[l];
      for (double v : cur)
        act_in_max[l] = std::max(act_in_max[l], std::abs(v));
      next.assign(layer.out, 0.0);
      for (std::size_t j = 0; j < layer.out; ++j) {
        double acc = static_cast<double>(layer.b[j]);
        const float* w = layer.w.data() + j * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i)
          acc += static_cast<double>(w[i]) * cur[i];
        pre_max[l] = std::max(pre_max[l], std::abs(acc));
        next[j] = l + 1 < fl.size() ? std::max(acc, 0.0) : acc;
      }
      cur.swap(next);
    }
  }

  QuantizedMlp q;
  q.cfg_ = cfg;
  q.layers_.reserve(fl.size());
  for (std::size_t l = 0; l < fl.size(); ++l) {
    const DenseLayer& layer = fl[l];
    QuantizedDenseLayer ql;
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

    ql.w.resize(layer.w.size());
    for (std::size_t i = 0; i < layer.w.size(); ++i) {
      const std::int64_t code =
          to_code(static_cast<double>(layer.w[i]), ql.weight_fmt);
      // fit_format over a symmetric range keeps |code| <= 2^(W-1)-1;
      // simd::dot_i16's madd path relies on the weight operand never being
      // -2^15, so pin the invariant where the codes are minted.
      MLQR_CHECK(code > INT16_MIN);
      ql.w[i] = static_cast<std::int16_t>(code);
    }
    const int bias_frac = ql.in_fmt.frac_bits + ql.weight_fmt.frac_bits;
    ql.b.resize(layer.b.size());
    for (std::size_t i = 0; i < layer.b.size(); ++i)
      ql.b[i] = saturate_to_bits(
          static_cast<std::int64_t>(round_half_even(
              std::ldexp(static_cast<double>(layer.b[i]), bias_frac))),
          cfg.accum_bits);

    q.layers_.push_back(std::move(ql));
  }
  q.derive_split_weights();
  return q;
}

void QuantizedMlp::derive_split_weights() {
  split_.assign(layers_.size(), {});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedDenseLayer& layer = layers_[l];
    const std::size_t row = 2 * ((layer.in + 1) / 2);
    SplitWeights& sw = split_[l];
    sw.hi.assign(layer.out * row, 0);
    sw.lo.assign(layer.out * row, 0);
    for (std::size_t j = 0; j < layer.out; ++j)
      for (std::size_t i = 0; i < layer.in; ++i) {
        const std::int16_t w = layer.w[j * layer.in + i];
        sw.hi[j * row + i] = static_cast<std::int16_t>(w >> 8);
        sw.lo[j * row + i] = static_cast<std::int16_t>(w & 0xFF);
      }
  }
}

void QuantizedMlp::save(std::ostream& os) const {
  save_quantization_config(os, cfg_);
  io::write_u64(os, layers_.size());
  for (const QuantizedDenseLayer& l : layers_) {
    io::write_u64(os, l.in);
    io::write_u64(os, l.out);
    save_format(os, l.weight_fmt);
    save_format(os, l.in_fmt);
    io::write_vec_i16(os, l.w);
    io::write_vec_i64(os, l.b);
  }
}

QuantizedMlp QuantizedMlp::load(std::istream& is) {
  QuantizedMlp q;
  q.cfg_ = load_quantization_config(is);
  const std::size_t n_layers = io::read_count(is, 64);
  MLQR_CHECK_MSG(n_layers > 0, "corrupt quantized MLP: zero layers");
  q.layers_.resize(n_layers);
  std::size_t prev_out = 0;
  for (QuantizedDenseLayer& l : q.layers_) {
    l.in = io::read_count(is);
    l.out = io::read_count(is);
    l.weight_fmt = load_format(is);
    l.in_fmt = load_format(is);
    l.w = io::read_vec_i16(is);
    l.b = io::read_vec_i64(is);
    check_layer_chain(l, prev_out, "quantized MLP");
    prev_out = l.out;
    // simd::dot_i16's madd path requires weight codes != -2^15 — the same
    // invariant quantize() pins at build time, re-pinned on the load path
    // so a corrupt snapshot cannot smuggle the one forbidden code in.
    for (std::int16_t w : l.w)
      MLQR_CHECK_MSG(w > INT16_MIN,
                     "quantized MLP weight code -32768 is not representable");
  }
  q.derive_split_weights();
  return q;
}

std::size_t QuantizedMlp::input_size() const {
  return stack_input_size(layers_);
}

std::size_t QuantizedMlp::output_size() const {
  return stack_output_size(layers_);
}

std::size_t QuantizedMlp::parameter_count() const {
  return stack_parameter_count(layers_);
}

void QuantizedMlp::logits_into(std::span<const std::int32_t> x,
                               std::vector<std::int64_t>& logits,
                               std::vector<std::int16_t>& act_a,
                               std::vector<std::int16_t>& act_b) const {
  MLQR_CHECK_MSG(x.size() == input_size(),
                 "input size " << x.size() << " != " << input_size());
  // Input codes live on the first layer's in_fmt grid (total_bits <= 16 by
  // QuantizationConfig contract), so the int32 -> int16 narrowing is
  // value-preserving; it stages the activations for the widening int16
  // multiply-add dot products.
  act_a.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    act_a[i] = static_cast<std::int16_t>(x[i]);
  std::vector<std::int16_t>* cur = &act_a;
  std::vector<std::int16_t>* next = &act_b;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedDenseLayer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    const std::int16_t* in_codes = cur->data();
    if (last) {
      logits.resize(layer.out);
    } else {
      next->assign(layer.out, 0);
    }
    const int shift =
        last ? 0
             : layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                   layers_[l + 1].in_fmt.frac_bits;
    for (std::size_t j = 0; j < layer.out; ++j) {
      // Exact int64 accumulation: simd::dot_i16 is bit-identical to the
      // scalar loop, so the saturate/shift requant chain below sees the
      // same accumulator on every tier.
      std::int64_t acc =
          layer.b[j] + simd::dot_i16(layer.w.data() + j * layer.in, in_codes,
                                     layer.in);
      acc = saturate_to_bits(acc, cfg_.accum_bits);
      if (last) {
        logits[j] = acc;
      } else {
        if (acc < 0) acc = 0;  // ReLU in the integer domain.
        const std::int64_t code = saturate_to_bits(
            shift_round_half_even(acc, shift), cfg_.activation_bits);
        (*next)[j] = static_cast<std::int16_t>(code);
      }
    }
    std::swap(cur, next);
  }
}

int QuantizedMlp::predict(std::span<const std::int32_t> x,
                          std::vector<std::int64_t>& logits,
                          std::vector<std::int16_t>& act_a,
                          std::vector<std::int16_t>& act_b) const {
  logits_into(x, logits, act_a, act_b);
  return argmax_tie_low(std::span<const std::int64_t>(logits));
}

void QuantizedMlp::classify_batch_into(std::size_t batch,
                                       const std::int32_t* features,
                                       std::vector<std::int16_t>& act_a,
                                       std::vector<std::int16_t>& act_b,
                                       std::vector<std::int64_t>& logits,
                                       int* labels,
                                       std::size_t label_stride) const {
  if (batch == 0) return;
  const std::size_t in_dim = input_size();
  const std::size_t out_dim = output_size();

  // Shot-lane schedule: within a block of up to kShotBlock shots,
  // activations live as input pairs per shot ([i/2][shot][2], one pair row
  // of kPairStride codes) so one pmaddwd against a broadcast weight pair
  // advances a whole vector of shots by two inputs. The readout heads are
  // narrow (tens of inputs), so per-shot dot products spend most of their
  // time in vector tails and horizontal reductions; across shots every
  // lane is full regardless of layer width. With the split weights a
  // layer of up to simd::kMaxSplitPairs pairs accumulates exactly in int32
  // and recombines once in int64. Integer arithmetic is exact, so the
  // reordering is bit-identical to logits_into by construction.
  constexpr std::size_t kShotBlock = 128;
  constexpr std::size_t kPairStride = 2 * kShotBlock;

  std::size_t max_dim = in_dim;
  for (const QuantizedDenseLayer& layer : layers_)
    max_dim = std::max(max_dim, layer.out);
  act_a.resize((max_dim + 1) / 2 * kPairStride);
  act_b.resize((max_dim + 1) / 2 * kPairStride);
  logits.resize(out_dim * kShotBlock);
  // Code i of shot s in the paired layout. An odd width leaves the last
  // pair's second slot stale: its split weights are zero.
  const auto slot = [](std::size_t i, std::size_t s) {
    return i / 2 * kPairStride + 2 * s + i % 2;
  };

  for (std::size_t s0 = 0; s0 < batch; s0 += kShotBlock) {
    const std::size_t nb = std::min(kShotBlock, batch - s0);
    // Stage the block paired, with the same value-preserving
    // int32 -> int16 narrowing as logits_into.
    for (std::size_t s = 0; s < nb; ++s)
      for (std::size_t i = 0; i < in_dim; ++i)
        act_a[slot(i, s)] =
            static_cast<std::int16_t>(features[(s0 + s) * in_dim + i]);
    std::vector<std::int16_t>* cur = &act_a;
    std::vector<std::int16_t>* next = &act_b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const QuantizedDenseLayer& layer = layers_[l];
      const SplitWeights& sw = split_[l];
      const bool last = l + 1 == layers_.size();
      const int shift =
          last ? 0
               : layer.in_fmt.frac_bits + layer.weight_fmt.frac_bits -
                     layers_[l + 1].in_fmt.frac_bits;
      const std::size_t pairs = (layer.in + 1) / 2;
      for (std::size_t j = 0; j < layer.out; ++j) {
        std::int64_t acc64[kShotBlock];
        std::fill(acc64, acc64 + nb, layer.b[j]);
        for (std::size_t p0 = 0; p0 < pairs; p0 += simd::kMaxSplitPairs) {
          const std::size_t np = std::min(simd::kMaxSplitPairs, pairs - p0);
          const std::size_t w0 = (j * pairs + p0) * 2;
          std::int32_t hi[kShotBlock], lo[kShotBlock];
          simd::madd_split_pairs_i16(sw.hi.data() + w0, sw.lo.data() + w0, np,
                                     cur->data() + p0 * kPairStride,
                                     kPairStride, nb, hi, lo);
          for (std::size_t s = 0; s < nb; ++s)
            acc64[s] += 256 * std::int64_t{hi[s]} + lo[s];
        }
        // Epilogue: the exact per-(shot, output) chain of logits_into.
        for (std::size_t s = 0; s < nb; ++s) {
          std::int64_t acc = saturate_to_bits(acc64[s], cfg_.accum_bits);
          if (last) {
            logits[j * kShotBlock + s] = acc;
          } else {
            if (acc < 0) acc = 0;  // ReLU in the integer domain.
            const std::int64_t code = saturate_to_bits(
                shift_round_half_even(acc, shift), cfg_.activation_bits);
            (*next)[slot(j, s)] = static_cast<std::int16_t>(code);
          }
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

int QuantizedMlp::logit_frac_bits() const {
  MLQR_CHECK(!layers_.empty());
  const QuantizedDenseLayer& last = layers_.back();
  return last.in_fmt.frac_bits + last.weight_fmt.frac_bits;
}

double QuantizedMlp::logit_resolution() const {
  return std::ldexp(1.0, -logit_frac_bits());
}

}  // namespace mlqr
