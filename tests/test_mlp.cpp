#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {
namespace {

TEST(Mlp, TopologyAndParameterCount) {
  const Mlp m({45, 22, 11, 3});
  EXPECT_EQ(m.input_size(), 45u);
  EXPECT_EQ(m.output_size(), 3u);
  EXPECT_EQ(m.num_layers(), 3u);
  // 45*22+22 + 22*11+11 + 11*3+3 = 1012 + 253 + 36 = 1301.
  EXPECT_EQ(m.parameter_count(), 1301u);
}

TEST(Mlp, PaperTopologiesMatchClaimedSizes) {
  // FNN baseline ~686k parameters (1000-500-250-243).
  const Mlp fnn({1000, 500, 250, 243});
  EXPECT_NEAR(static_cast<double>(fnn.parameter_count()), 686.0e3, 4e3);

  // Proposed per-qubit head is ~100x smaller even with 5 instances.
  const Mlp head({45, 22, 11, 3});
  EXPECT_GT(fnn.parameter_count(), 100u * head.parameter_count());
}

TEST(Mlp, ForwardMatchesManualComputation) {
  Mlp m({2, 2, 2});
  // Arena order: layer 0 W (identity), b; layer 1 W, b.
  const std::vector<float> params{1.0f, 0.0f, 0.0f, 1.0f, 0.0f, -1.0f,
                                  1.0f, 2.0f, 3.0f, 4.0f, 0.5f, -0.5f};
  ASSERT_EQ(m.parameter_count(), params.size());
  std::copy(params.begin(), params.end(), m.params().begin());
  EXPECT_EQ(m.layer(1).w[2], 3.0f);
  EXPECT_EQ(m.layer(1).b[0], 0.5f);

  const std::vector<float> x{2.0f, 0.5f};
  // Layer0: (2, -0.5) -> ReLU -> (2, 0).
  // Layer1: (1*2+2*0+0.5, 3*2+4*0-0.5) = (2.5, 5.5).
  const std::vector<float> z = m.logits(x);
  EXPECT_FLOAT_EQ(z[0], 2.5f);
  EXPECT_FLOAT_EQ(z[1], 5.5f);
  EXPECT_EQ(m.predict(x), 1);
}

TEST(Mlp, InitWeightsDeterministic) {
  Mlp a({8, 4, 2}), b({8, 4, 2});
  Rng ra(5), rb(5);
  a.init_weights(ra);
  b.init_weights(rb);
  EXPECT_TRUE(std::ranges::equal(a.params(), b.params()));
}

TEST(Mlp, SaveLoadRoundTrip) {
  Mlp m({10, 7, 4});
  Rng rng(77);
  m.init_weights(rng);
  std::stringstream ss;
  m.save(ss);
  const Mlp loaded = Mlp::load(ss);
  EXPECT_EQ(loaded.parameter_count(), m.parameter_count());
  std::vector<float> x(10, 0.3f);
  EXPECT_EQ(loaded.logits(x), m.logits(x));
}

TEST(Mlp, InvalidConstructionThrows) {
  EXPECT_THROW(Mlp({5}), Error);
  EXPECT_THROW(Mlp({5, 0, 2}), Error);
}

TEST(Mlp, WrongInputSizeThrows) {
  const Mlp m({4, 2});
  std::vector<float> x(3, 0.0f);
  EXPECT_THROW(m.logits(x), Error);
}

TEST(Mlp, CorruptStreamThrows) {
  std::stringstream ss;
  ss << "garbage";
  EXPECT_THROW(Mlp::load(ss), Error);
}

// Load validates every header against the dims and the bytes actually
// present before the parameter arena grows: a hostile count fails with
// Error instead of sizing a huge allocation, and so does every truncation.
TEST(Mlp, LoadRejectsHostileHeadersAndTruncations) {
  auto header = [](std::uint64_t in, std::uint64_t out, std::uint64_t count) {
    std::stringstream ss;
    io::write_u64(ss, 1);  // One layer.
    io::write_u64(ss, in);
    io::write_u64(ss, out);
    io::write_u64(ss, count);  // W count; no payload follows.
    return ss;
  };
  std::stringstream huge = header(1u << 14, 1u << 14, 1u << 28);
  EXPECT_THROW(Mlp::load(huge), Error);
  std::stringstream zero_dim = header(0, 2, 0);
  EXPECT_THROW(Mlp::load(zero_dim), Error);
  // A 3 -> 2 layer whose W run holds 5 values (payload present).
  std::stringstream wrong_count;
  io::write_u64(wrong_count, 1);
  io::write_u64(wrong_count, 3);
  io::write_u64(wrong_count, 2);
  io::write_vec_f32(wrong_count, std::vector<float>(5));
  io::write_vec_f32(wrong_count, std::vector<float>(2));
  EXPECT_THROW(Mlp::load(wrong_count), Error);

  Mlp m({3, 4, 2});
  Rng rng(5);
  m.init_weights(rng);
  std::ostringstream os;
  m.save(os);
  const std::string bytes = os.str();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::istringstream is(bytes.substr(0, n));
    EXPECT_THROW(Mlp::load(is), Error) << "truncated to " << n;
  }
  std::istringstream whole(bytes);
  EXPECT_TRUE(std::ranges::equal(Mlp::load(whole).params(), m.params()));

  // Chain rule: a second layer whose input is not the first one's output.
  std::ostringstream chain;
  io::write_u64(chain, 2);
  for (const auto& [in, out] : {std::pair<int, int>{3, 4}, {5, 2}}) {
    io::write_u64(chain, in);
    io::write_u64(chain, out);
    io::write_vec_f32(chain, std::vector<float>(in * out));
    io::write_vec_f32(chain, std::vector<float>(out));
  }
  std::istringstream chain_is(chain.str());
  EXPECT_THROW(Mlp::load(chain_is), Error);
}

}  // namespace
}  // namespace mlqr
