#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "linalg/gemm.h"
#include "nn/dense_stack.h"

namespace mlqr {

Mlp::Mlp(std::vector<std::size_t> layer_sizes)
    : sizes_(std::move(layer_sizes)) {
  MLQR_CHECK_MSG(sizes_.size() >= 2, "MLP needs at least input+output");
  for (std::size_t s : sizes_) MLQR_CHECK(s > 0);
  params_.assign(arena_size(sizes_), 0.0f);
}

void Mlp::init_weights(Rng& rng) {
  for (std::size_t l = 0; l < num_layers(); ++l) {
    const DenseLayerView<float> dense = layer(l, params());
    const double stddev = std::sqrt(2.0 / static_cast<double>(dense.in));
    for (float& w : dense.w)
      w = static_cast<float>(rng.normal(0.0, stddev));
    std::fill(dense.b.begin(), dense.b.end(), 0.0f);
  }
}

std::size_t Mlp::input_size() const {
  MLQR_CHECK(!sizes_.empty());
  return sizes_.front();
}

std::size_t Mlp::output_size() const {
  MLQR_CHECK(!sizes_.empty());
  return sizes_.back();
}

std::vector<float> Mlp::logits(std::span<const float> x) const {
  std::vector<float> out, scratch;
  logits_into(x, out, scratch);
  return out;
}

void Mlp::logits_into(std::span<const float> x, std::vector<float>& out,
                      std::vector<float>& scratch) const {
  MLQR_CHECK_MSG(x.size() == input_size(),
                 "MLP input size " << x.size() << " != " << input_size());
  // Ping-pong between the two buffers; whichever holds the final
  // activations is swapped into `out`, so no copy and no allocation once
  // both buffers have grown to the widest layer.
  scratch.assign(x.begin(), x.end());
  std::vector<float>* cur = &scratch;
  std::vector<float>* next = &out;
  for (std::size_t l = 0; l < num_layers(); ++l) {
    const DenseLayer dense = layer(l);
    next->assign(dense.out, 0.0f);
    sgemv(dense.out, dense.in, dense.w.data(), dense.in, cur->data(),
          dense.b.data(), next->data());
    if (l + 1 < num_layers())
      for (float& v : *next) v = std::max(v, 0.0f);
    std::swap(cur, next);
  }
  if (cur != &out) std::swap(out, scratch);
}

int Mlp::predict(std::span<const float> x) const {
  const std::vector<float> z = logits(x);
  return argmax_tie_low(std::span<const float>(z));
}

int Mlp::predict_reusing(std::span<const float> x, std::vector<float>& out,
                         std::vector<float>& scratch) const {
  logits_into(x, out, scratch);
  return argmax_tie_low(std::span<const float>(out));
}

int Mlp::predict_scored_reusing(std::span<const float> x,
                                std::vector<float>& out,
                                std::vector<float>& scratch,
                                float& p_max) const {
  logits_into(x, out, scratch);
  const int label = argmax_tie_low(std::span<const float>(out));
  // Stable softmax anchored at the winning logit: p_max = 1 / sum_c
  // exp(z_c - z_max). The winner contributes exp(0) = 1, so the result is
  // always in (0, 1] and never under/overflows.
  const float z_max = out[static_cast<std::size_t>(label)];
  float total = 0.0f;
  for (const float z : out) total += std::exp(z - z_max);
  p_max = 1.0f / total;
  return label;
}

void Mlp::classify_batch_into(std::size_t batch, const float* features,
                              std::vector<float>& act_a,
                              std::vector<float>& act_b, int* labels,
                              std::size_t label_stride) const {
  if (batch == 0) return;
  const float* cur = features;
  std::size_t cur_dim = input_size();
  std::vector<float>* next = &act_a;
  std::vector<float>* other = &act_b;
  for (std::size_t l = 0; l < num_layers(); ++l) {
    const DenseLayer dense = layer(l);
    next->resize(batch * dense.out);
    // Z = A * W^T, one GEMM for the whole micro-batch: the weight matrix
    // streams through cache once per batch instead of once per shot.
    // Serial on purpose — this runs inside EngineCore worker slots, and
    // sgemm's own parallel_for would re-enter the shared pool.
    sgemm_serial(false, true, batch, dense.out, dense.in, 1.0f, cur, cur_dim,
                 dense.w.data(), dense.in, 0.0f, next->data(), dense.out);
    const bool last = l + 1 == num_layers();
    for (std::size_t r = 0; r < batch; ++r) {
      float* zrow = next->data() + r * dense.out;
      if (last)
        simd::add_bias_f32(zrow, dense.b.data(), dense.out);
      else
        simd::add_bias_relu_f32(zrow, dense.b.data(), dense.out);
    }
    cur = next->data();
    cur_dim = dense.out;
    std::swap(next, other);
  }
  const std::size_t out_dim = output_size();
  for (std::size_t r = 0; r < batch; ++r)
    labels[r * label_stride] =
        argmax_tie_low(std::span<const float>(cur + r * out_dim, out_dim));
}

void Mlp::save(std::ostream& os) const {
  // Explicit little-endian layout (common/serialize.h): layer count, then
  // per layer the dims and the exact f32 bit patterns of weights/biases —
  // a reloaded network is bit-identical on every host.
  io::write_u64(os, num_layers());
  for (std::size_t l = 0; l < num_layers(); ++l) {
    const DenseLayer dense = layer(l);
    io::write_u64(os, dense.in);
    io::write_u64(os, dense.out);
    io::write_vec_f32(os, dense.w);
    io::write_vec_f32(os, dense.b);
  }
  MLQR_CHECK_MSG(os.good(), "MLP serialization failed");
}

namespace {

/// Appends one count-prefixed f32 run to `arena`. The count must equal the
/// `n` the layer dims imply and fit the stream's remaining bytes before
/// the arena grows.
void read_run(std::istream& is, std::size_t n, std::vector<float>& arena) {
  const std::size_t count =
      io::read_count(is, io::kMaxSerializedCount, sizeof(float));
  MLQR_CHECK_MSG(count == n, "MLP layer payload does not match its dims");
  const std::size_t at = arena.size();
  arena.resize(at + n);
  for (std::size_t i = 0; i < n; ++i) arena[at + i] = io::read_f32(is);
}

}  // namespace

Mlp Mlp::load(std::istream& is) {
  const std::size_t n_layers = io::read_count(is, 64);
  MLQR_CHECK_MSG(n_layers > 0, "corrupt MLP stream: zero layers");
  Mlp mlp;
  for (std::size_t l = 0; l < n_layers; ++l) {
    const std::size_t in = io::read_count(is);
    const std::size_t out = io::read_count(is);
    check_layer_dims(in, out, l == 0 ? 0 : mlp.sizes_.back(), "MLP");
    if (l == 0) mlp.sizes_.push_back(in);
    mlp.sizes_.push_back(out);
    read_run(is, in * out, mlp.params_);
    read_run(is, out, mlp.params_);
  }
  return mlp;
}

}  // namespace mlqr
