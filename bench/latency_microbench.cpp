// Google-benchmark microbenchmarks of the software inference path: digital
// down-conversion, matched-filter scoring, per-qubit head inference, and
// whole-shot classification for each design, plus the per-stage breakdown
// of the float, int16 and int8 datapaths (front-end per shot and per block,
// heads per shot and batched). Front-end rows report `filters` and
// `distinct_filters` (fused dot products actually run per shot). (FPGA latency is modeled in fpga/latency.h;
// these numbers characterize the reference implementation.)
//
// Besides the console table, every run writes google-benchmark's JSON
// (tagged with the git sha and compiled SIMD tier via custom context) to
// BENCH_latency_microbench.json — the microbench half of the recorded
// perf trajectory.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "discrim/fnn_baseline.h"
#include "discrim/proposed.h"
#include "discrim/quantized_proposed.h"
#include "dsp/demodulator.h"
#include "pipeline/readout_engine.h"
#include "readout/dataset.h"
#include "readout/experiment.h"

namespace {

using namespace mlqr;

/// Shared lazily-built state: a small dataset + trained designs.
struct BenchState {
  ReadoutDataset ds;
  ProposedDiscriminator proposed;
  FnnDiscriminator fnn;
  Demodulator demod;
  QuantizedProposedDiscriminator int16;
  Quantized8ProposedDiscriminator int8;

  static const BenchState& get() {
    static const BenchState state = [] {
      DatasetConfig cfg;
      cfg.shots_per_basis_state = 60;
      cfg.seed = 9;
      ReadoutDataset ds = generate_dataset(cfg);
      ProposedConfig pcfg;
      pcfg.trainer.epochs = 10;
      ProposedDiscriminator p = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      FnnConfig fcfg;
      fcfg.trainer.epochs = 1;
      FnnDiscriminator f = FnnDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, fcfg);
      Demodulator d(ds.chip);
      QuantizedProposedDiscriminator q16 =
          QuantizedProposedDiscriminator::quantize(p, ds.shots, ds.train_idx,
                                                   QuantizationConfig{});
      Quantized8ProposedDiscriminator q8 =
          Quantized8ProposedDiscriminator::quantize(p, ds.shots,
                                                    ds.train_idx);
      return BenchState{std::move(ds), std::move(p), std::move(f),
                        std::move(d),  std::move(q16), std::move(q8)};
    }();
    return state;
  }
};

void BM_Demodulate(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const IqTrace& trace = s.ds.shots.traces[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.demod.demodulate(trace, 0, 0));
  }
}
BENCHMARK(BM_Demodulate);

void BM_MfFeatures45(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const IqTrace& trace = s.ds.shots.traces[1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.proposed.features(trace));
  }
}
BENCHMARK(BM_MfFeatures45);

void BM_PerQubitHeadInference(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const std::vector<float> feats = s.proposed.features(s.ds.shots.traces[2]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.proposed.qubit_model(0).predict(feats));
  }
}
BENCHMARK(BM_PerQubitHeadInference);

void BM_ProposedClassifyShot(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const IqTrace& trace = s.ds.shots.traces[3];
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.proposed.classify(trace));
  }
}
BENCHMARK(BM_ProposedClassifyShot);

void BM_FnnClassifyShot(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const IqTrace& trace = s.ds.shots.traces[4];
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.fnn.classify(trace));
  }
}
BENCHMARK(BM_FnnClassifyShot);

// The scratch-reusing hot path the streaming engine runs per shot — the
// delta vs BM_ProposedClassifyShot is the per-shot allocation cost the
// engine eliminates.
void BM_ProposedClassifyShotScratch(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const IqTrace& trace = s.ds.shots.traces[3];
  InferenceScratch scratch;
  std::vector<int> out(s.ds.shots.n_qubits);
  for (auto _ : state) {
    s.proposed.classify_into(trace, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ProposedClassifyShotScratch);

// Whole-batch classification through ReadoutEngine, single worker: the
// streaming path's per-shot cost including engine bookkeeping.
void BM_EngineProcessBatch(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const std::size_t batch =
      std::min<std::size_t>(static_cast<std::size_t>(state.range(0)),
                            s.ds.shots.size());
  EngineConfig cfg;
  cfg.threads = 1;
  ReadoutEngine engine(make_backend(s.proposed), cfg);
  const std::span<const IqTrace> frames(s.ds.shots.traces.data(), batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.process_batch(frames));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EngineProcessBatch)->Arg(1)->Arg(64)->Arg(1024);

/// Front-end size counters: filters per shot, and the fused dot products
/// they cost (exact copies and negations of a kernel row share one).
template <class Frontend>
void set_frontend_counters(benchmark::State& state, const Frontend& fe) {
  state.counters["filters"] = static_cast<double>(fe.n_filters());
  state.counters["distinct_filters"] =
      static_cast<double>(fe.distinct_filters());
}

// The fused float front-end in isolation (the stage the demod + MF pair
// above used to form) — per-shot feature extraction on the SIMD kernels.
void BM_FusedFrontendFeatures(benchmark::State& state) {
  const BenchState& s = BenchState::get();
  const IqTrace& trace = s.ds.shots.traces[5];
  InferenceScratch scratch;
  for (auto _ : state) {
    s.proposed.features_into(trace, scratch);
    benchmark::DoNotOptimize(scratch.features.data());
  }
  set_frontend_counters(state, s.proposed.fused_frontend());
}
BENCHMARK(BM_FusedFrontendFeatures);

// Per-stage breakdown of the two IntegerProposedDiscriminator presets.
// Both share the fused int16 front-end, calibrated per preset: the int16
// preset's 16-bit kernel grid runs strip 1 (every madd block flushes into
// the split int32 halves), the int8 preset's 8-bit grid runs deep int32
// strips. Block and batched rows report items = shots, so their per-shot
// cost is 1 / items_per_second.
constexpr std::size_t kStageBlock = 64;

struct Int16Path {
  using Design = QuantizedProposedDiscriminator;
  using Logit = Design::Head::Logit;
  using Act = Design::Head::Act;
  static const Design& get() { return BenchState::get().int16; }
};

struct Int8Path {
  using Design = Quantized8ProposedDiscriminator;
  using Logit = Design::Head::Logit;
  using Act = Design::Head::Act;
  static const Design& get() { return BenchState::get().int8; }
};

/// The first kStageBlock held frames, as the block front-end takes them.
std::vector<const IqTrace*> stage_frames() {
  const BenchState& s = BenchState::get();
  std::vector<const IqTrace*> frames;
  for (std::size_t k = 0; k < kStageBlock; ++k)
    frames.push_back(&s.ds.shots.traces[k % s.ds.shots.size()]);
  return frames;
}

// The fused float front-end over a block of shots (the batched path's
// loop order); items = shots.
void BM_FusedFrontendBlock(benchmark::State& state) {
  const FusedFrontend& fe = BenchState::get().proposed.fused_frontend();
  const std::vector<const IqTrace*> frames = stage_frames();
  std::vector<float> feats(kStageBlock * fe.n_filters());
  for (auto _ : state) {
    fe.features_block_into(kStageBlock, frames.data(), feats.data(),
                           fe.n_filters());
    benchmark::DoNotOptimize(feats.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStageBlock));
  set_frontend_counters(state, fe);
}
BENCHMARK(BM_FusedFrontendBlock);

/// Feature codes of the stage frames, row-major kStageBlock x n_filters.
template <class P>
std::vector<std::int32_t> stage_features() {
  const QuantizedFrontend& fe = P::get().frontend();
  std::vector<std::int32_t> feats(kStageBlock * fe.n_filters());
  InferenceScratch scratch;
  fe.features_block_into(kStageBlock, stage_frames().data(), scratch,
                         feats.data(), fe.n_filters());
  return feats;
}

template <class P>
void BM_IntFrontendShot(benchmark::State& state) {
  const QuantizedFrontend& fe = P::get().frontend();
  const IqTrace& trace = BenchState::get().ds.shots.traces[5];
  InferenceScratch scratch;
  for (auto _ : state) {
    fe.features_into(trace, scratch);
    benchmark::DoNotOptimize(scratch.int_features.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  set_frontend_counters(state, fe);
}
BENCHMARK_TEMPLATE(BM_IntFrontendShot, Int16Path);
BENCHMARK_TEMPLATE(BM_IntFrontendShot, Int8Path);

template <class P>
void BM_IntFrontendBlock(benchmark::State& state) {
  const QuantizedFrontend& fe = P::get().frontend();
  const std::vector<const IqTrace*> frames = stage_frames();
  std::vector<std::int32_t> feats(kStageBlock * fe.n_filters());
  InferenceScratch scratch;
  for (auto _ : state) {
    fe.features_block_into(kStageBlock, frames.data(), scratch, feats.data(),
                           fe.n_filters());
    benchmark::DoNotOptimize(feats.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStageBlock));
  set_frontend_counters(state, fe);
}
BENCHMARK_TEMPLATE(BM_IntFrontendBlock, Int16Path);
BENCHMARK_TEMPLATE(BM_IntFrontendBlock, Int8Path);

template <class P>
void BM_IntHeadsShot(benchmark::State& state) {
  const typename P::Design& d = P::get();
  const std::vector<std::int32_t> feats = stage_features<P>();
  const std::span<const std::int32_t> row(feats.data(),
                                          d.frontend().n_filters());
  std::vector<typename P::Logit> logits;
  std::vector<typename P::Act> act_a, act_b;
  for (auto _ : state)
    for (std::size_t q = 0; q < d.num_qubits(); ++q)
      benchmark::DoNotOptimize(d.head(q).predict(row, logits, act_a, act_b));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_IntHeadsShot, Int16Path);
BENCHMARK_TEMPLATE(BM_IntHeadsShot, Int8Path);

template <class P>
void BM_IntHeadsBatch(benchmark::State& state) {
  const typename P::Design& d = P::get();
  const std::vector<std::int32_t> feats = stage_features<P>();
  std::vector<typename P::Logit> logits;
  std::vector<typename P::Act> act_a, act_b;
  std::vector<int> labels(kStageBlock * d.num_qubits());
  for (auto _ : state) {
    for (std::size_t q = 0; q < d.num_qubits(); ++q)
      d.head(q).classify_batch_into(kStageBlock, feats.data(), act_a, act_b,
                                    logits, labels.data() + q,
                                    d.num_qubits());
    benchmark::DoNotOptimize(labels.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStageBlock));
}
BENCHMARK_TEMPLATE(BM_IntHeadsBatch, Int16Path);
BENCHMARK_TEMPLATE(BM_IntHeadsBatch, Int8Path);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): unless the caller already
// chose an output file, the run is mirrored into
// BENCH_latency_microbench.json (machine-readable perf record, tagged
// with the commit and SIMD tier) by injecting the library's own
// --benchmark_out flags — version-portable, and the console reporter
// stays on for humans.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_latency_microbench.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::AddCustomContext("git_sha", mlqr::bench::build_git_sha());
  benchmark::AddCustomContext("simd_tier", mlqr::simd::tier());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::cout << "Series written to BENCH_latency_microbench.json\n";
  return 0;
}
