#include "nn/optimizer.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {

void AdamWOptimizer::reset(const Mlp& model) {
  step_ = 0;
  sizes_ = model.layer_sizes();
  m_.assign(model.parameter_count(), 0.0f);
  v_.assign(model.parameter_count(), 0.0f);
}

bool AdamWOptimizer::matches(const Mlp& model) const {
  return sizes_ == model.layer_sizes();
}

void AdamWOptimizer::step(Mlp& model, std::span<const float> grad,
                          const AdamWParams& p) {
  MLQR_CHECK_MSG(matches(model), "optimizer state does not match the model");
  const std::span<float> param = model.params();
  MLQR_CHECK(grad.size() == param.size() && m_.size() == param.size());
  ++step_;
  const float bias1 = 1.0f - std::pow(p.beta1, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(p.beta2, static_cast<float>(step_));
  // AdamW: decoupled weight decay — the decay acts directly on the weights
  // instead of through the adaptive gradient normalization, so its
  // strength is predictable regardless of gradient scale.
  const float decay = p.learning_rate * p.weight_decay;
  for (std::size_t i = 0; i < param.size(); ++i) {
    const float g = grad[i];
    m_[i] = p.beta1 * m_[i] + (1.0f - p.beta1) * g;
    v_[i] = p.beta2 * v_[i] + (1.0f - p.beta2) * g * g;
    const float mhat = m_[i] / bias1;
    const float vhat = v_[i] / bias2;
    param[i] -=
        p.learning_rate * mhat / (std::sqrt(vhat) + p.eps) + decay * param[i];
  }
}

void AdamWOptimizer::save(std::ostream& os) const {
  io::write_u64(os, static_cast<std::uint64_t>(step_));
  io::write_u64(os, sizes_.size());
  for (std::size_t s : sizes_) io::write_u64(os, s);
  io::write_vec_f32(os, m_);
  io::write_vec_f32(os, v_);
}

AdamWOptimizer AdamWOptimizer::load(std::istream& is) {
  AdamWOptimizer opt;
  opt.step_ = static_cast<long>(io::read_u64(is));
  MLQR_CHECK_MSG(opt.step_ >= 0, "corrupt optimizer state: negative step");
  // Up to 64 layers (Mlp::load's cap) plus the input width; an empty list
  // is a never-initialized optimizer.
  const std::size_t n_sizes = io::read_count(is, 65, sizeof(std::uint64_t));
  MLQR_CHECK_MSG(n_sizes != 1, "corrupt optimizer state: one layer size");
  for (std::size_t l = 0; l < n_sizes; ++l) {
    opt.sizes_.push_back(io::read_count(is));
    MLQR_CHECK_MSG(opt.sizes_.back() > 0,
                   "corrupt optimizer state: zero layer size");
  }
  // Sizes are <= 2^28 and at most 65, so this cannot overflow.
  const std::size_t n_params = Mlp::arena_size(opt.sizes_);
  opt.m_ = io::read_vec_f32(is);
  opt.v_ = io::read_vec_f32(is);
  MLQR_CHECK_MSG(opt.m_.size() == n_params && opt.v_.size() == n_params,
                 "corrupt optimizer state: moments do not match the layer "
                 "sizes");
  return opt;
}

}  // namespace mlqr
