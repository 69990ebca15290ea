// Phases the workloads share: the synchronous process_batch passes (the
// label gate on every workload and the whole of batch_offline), the traced
// run's layer probe, and one recalibration (retrain -> snapshot -> swap).
#include <algorithm>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "discrim/quantized8_proposed.h"
#include "discrim/quantized_proposed.h"

namespace mlqr_benchmark {

using namespace mlqr;

namespace {

constexpr std::size_t kBatchShots = 1024;

void check_labels(const Setup& s, std::size_t b, std::span<const std::size_t> pool_idx,
                  const std::vector<int>& labels, Report& report) {
  const std::size_t nq = s.n_qubits();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < pool_idx.size(); ++i)
    if (!std::equal(labels.begin() + i * nq, labels.begin() + (i + 1) * nq,
                    s.ref[b].begin() + pool_idx[i] * nq))
      ++bad;
  report.attempt(pool_idx.size());
  report.fail(std::string(backend_tag(b)) + " labels differ from the per-shot reference", bad);
}

}  // namespace

SyncRates sync_passes(const Setup& s, std::size_t rounds, double seconds, bool trace,
                      Report& report, SpanLog* log) {
  EngineConfig ec;
  ec.threads = s.workers;
  ClassifyBook book;
  std::vector<ReadoutEngine> engines;
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    const EngineBackend be = s.backends[b].backend();
    engines.emplace_back(trace && b == kFloat ? timed_backend(be, &book, nullptr) : be, ec);
  }
  // Pool positions 0..n-1 in 1024-shot batches; subsets index ds.shots.
  std::vector<std::vector<std::size_t>> subsets, positions;
  for (std::size_t lo = 0; lo < s.pool.size(); lo += kBatchShots) {
    const std::size_t hi = std::min(lo + kBatchShots, s.pool.size());
    subsets.emplace_back(s.pool.begin() + lo, s.pool.begin() + hi);
    positions.emplace_back();
    for (std::size_t p = lo; p < hi; ++p) positions.back().push_back(p);
  }

  SyncRates out;
  std::vector<double> pass_rate[kNumBackends], all_rate, float_p50;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t round = 0;; ++round) {
    const bool warmup = round == 0;
    if (!warmup) {
      if (rounds > 0 && round > rounds) break;
      if (rounds == 0 && now_ns() >= deadline) break;
    }
    if (round == 1) book.reset();
    double round_us = 0.0;
    for (std::size_t b = 0; b < kNumBackends; ++b) {
      std::vector<double> walls_us;
      for (std::size_t j = 0; j < subsets.size(); ++j) {
        const std::int64_t t0 = now_ns();
        EngineBatch eb = engines[b].process_batch(s.ds.shots, subsets[j]);
        const std::int64_t t1 = now_ns();
        check_labels(s, b, positions[j], eb.labels, report);
        if (warmup) continue;
        walls_us.push_back(ns_to_us(t1 - t0));
        if (log) log->add("process_batch", b, t0, t1, subsets[j].size());
      }
      if (warmup) continue;
      double pass_us = 0.0;
      for (double w : walls_us) pass_us += w;
      round_us += pass_us;
      pass_rate[b].push_back(static_cast<double>(s.pool.size()) * 1e6 / pass_us);
      if (b != kFloat) continue;
      out.float_total_s += pass_us * 1e-6;
      out.float_batch_us.insert(out.float_batch_us.end(), walls_us.begin(), walls_us.end());
      float_p50.push_back(quantile(walls_us, 0.5));
    }
    if (!warmup)
      all_rate.push_back(static_cast<double>(kNumBackends * s.pool.size()) * 1e6 / round_us);
  }
  for (std::size_t b = 0; b < kNumBackends; ++b)
    out.shots_per_s[b] = best_decile_rate(pass_rate[b]);
  out.all_shots_per_s = best_decile_rate(all_rate);
  out.float_p50_us = best_decile_time(float_p50);
  std::cout << "sync passes: " << all_rate.size() << " rounds, float "
            << out.shots_per_s[kFloat] << " int16 " << out.shots_per_s[kInt16] << " int8 "
            << out.shots_per_s[kInt8] << " shots/s\n";

  if (trace) {
    const double shots = static_cast<double>(book.shots.load());
    const double busy_s = static_cast<double>(book.busy_ns.load()) * 1e-9;
    const double worker_s = static_cast<double>(s.workers) * out.float_total_s;
    report.metric("pipeline.engine.batch_wall_us", median(out.float_batch_us), "us");
    report.metric("pipeline.engine.classify_busy_frac", busy_s / worker_s, "fraction");
    report.metric("pipeline.engine.glue_us_per_shot", (worker_s - busy_s) * 1e6 / shots, "us");
    report.metric("trace.float_shots_per_s", out.shots_per_s[kFloat], "1/s");
    if (book.calls.load() > 0)
      report.metric("pipeline.engine.group_size_mean",
                    shots / static_cast<double>(book.calls.load()), "shots");
    report.metric("pipeline.engine.gemm_shot_frac",
                  static_cast<double>(book.gemm_shots.load()) / shots, "fraction");
  }
  return out;
}

void layer_probe(const Setup& s, Report& report) {
  const ProposedDiscriminator& fd = s.float_design();
  const auto& i16 = *s.backends[kInt16].as<QuantizedProposedDiscriminator>();
  const auto& i8 = *s.backends[kInt8].as<Quantized8ProposedDiscriminator>();
  const std::size_t nq = s.n_qubits();
  constexpr std::size_t kShots = 1024, kTile = 64, kReps = 7;
  InferenceScratch sc;

  // Median over repetitions of (time for kShots shots) / kShots, in us.
  const auto per_shot_us = [&](const auto& body) {
    std::vector<double> reps;
    for (std::size_t r = 0; r < kReps; ++r) {
      const std::int64_t t0 = now_ns();
      body();
      reps.push_back(ns_to_us(now_ns() - t0) / static_cast<double>(kShots));
    }
    return median(reps);
  };

  // dsp: the fused front-ends.
  const FusedFrontend& ff = fd.fused_frontend();
  const std::size_t nf = ff.n_filters();
  std::vector<const IqTrace*> traces(kShots);
  for (std::size_t p = 0; p < kShots; ++p) traces[p] = &s.frame(p);
  std::vector<float> feats(kShots * nf);
  report.metric("dsp.float_frontend_us", per_shot_us([&] {
                  for (std::size_t p = 0; p < kShots; ++p) ff.features_into(s.frame(p), sc);
                }), "us");
  report.metric("dsp.float_frontend_block_us", per_shot_us([&] {
                  for (std::size_t p = 0; p < kShots; p += kTile)
                    ff.features_block_into(kTile, traces.data() + p, feats.data() + p * nf, nf);
                }), "us");
  std::vector<std::int32_t> codes(kShots * nf);
  report.metric("dsp.int16_frontend_us", per_shot_us([&] {
                  for (std::size_t p = 0; p < kShots; ++p)
                    i16.frontend().features_into(s.frame(p), sc);
                }), "us");
  for (std::size_t p = 0; p < kShots; ++p) {
    i16.frontend().features_into(s.frame(p), sc);
    std::copy(sc.int_features.begin(), sc.int_features.end(), codes.begin() + p * nf);
  }
  report.metric("dsp.frontend_macs", static_cast<double>(nf * ff.n_samples() * 2), "count");
  report.metric("dsp.kernel_bytes",
                static_cast<double>(nf * ff.n_samples() * 2 * sizeof(float)), "B");

  // nn: the per-qubit heads on precomputed features.
  std::vector<float> logits, act, act_b;
  std::vector<int> labels(kShots * nq);
  report.metric("nn.float_heads_us", per_shot_us([&] {
                  for (std::size_t p = 0; p < kShots; ++p)
                    for (std::size_t q = 0; q < nq; ++q)
                      fd.qubit_model(q).predict_reusing(
                          {feats.data() + p * nf, nf}, logits, act);
                }), "us");
  report.metric("nn.float_heads_batch_us", per_shot_us([&] {
                  for (std::size_t p = 0; p < kShots; p += kTile)
                    for (std::size_t q = 0; q < nq; ++q)
                      fd.qubit_model(q).classify_batch_into(kTile, feats.data() + p * nf, act,
                                                            act_b, labels.data() + p * nq + q,
                                                            nq);
                }), "us");
  std::vector<std::int64_t> ilogits;
  std::vector<std::int16_t> ia, ib;
  report.metric("nn.int16_heads_us", per_shot_us([&] {
                  for (std::size_t p = 0; p < kShots; ++p)
                    for (std::size_t q = 0; q < nq; ++q)
                      i16.head(q).predict({codes.data() + p * nf, nf}, ilogits, ia, ib);
                }), "us");
  report.metric("nn.params", static_cast<double>(fd.parameter_count()), "count");
  const double epochs = ProposedConfig{}.trainer.epochs;
  report.metric("nn.train_s", s.train_s, "s");
  report.metric("nn.train_samples_per_s",
                epochs * static_cast<double>(s.ds.train_idx.size()) / s.train_s, "1/s");

  // discrim: whole classify calls, per shot and in 64-shot batches; labels
  // checked against the per-shot reference.
  const ShotFrameAt frame_at = [&](std::size_t p) -> const IqTrace& { return s.frame(p); };
  const ShotLabelsAt labels_at = [&](std::size_t p) {
    return std::span<int>(labels.data() + p * nq, nq);
  };
  std::vector<std::size_t> probe_idx(kShots);
  for (std::size_t p = 0; p < kShots; ++p) probe_idx[p] = p;
  const auto probe = [&](std::size_t b, const auto& d) {
    const std::string tag = std::string("discrim.") + backend_tag(b);
    std::fill(labels.begin(), labels.end(), -1);
    report.metric(tag + "_us", per_shot_us([&] {
                    for (std::size_t p = 0; p < kShots; ++p)
                      d.classify_into(s.frame(p), sc, labels_at(p));
                  }), "us");
    check_labels(s, b, probe_idx, labels, report);
    std::fill(labels.begin(), labels.end(), -1);
    report.metric(tag + "_batch_us", per_shot_us([&] {
                    for (std::size_t p = 0; p < kShots; p += kTile)
                      d.classify_batch_into(p, p + kTile, frame_at, sc, labels_at);
                  }), "us");
    check_labels(s, b, probe_idx, labels, report);
  };
  probe(kFloat, fd);
  probe(kInt16, i16);
  probe(kInt8, i8);
  report.metric("discrim.quantize_s", s.quantize_s, "s");
  report.metric("readout.dataset_s", s.dataset_s, "s");
}

namespace {

/// Strided 4096-shot slice k of the training split. Stride 2 keeps about
/// half of every level's shots; a contiguous slice can miss the rare |2>
/// level of a qubit, and the matched-filter bank then throws.
std::vector<std::size_t> retrain_slice(const Setup& s, std::size_t k) {
  constexpr std::size_t kSliceShots = 4096;
  const auto& train = s.ds.train_idx;
  const std::size_t n = train.size();
  std::vector<std::size_t> idx;
  idx.reserve(kSliceShots);
  // An odd start step: successive slices alternate between the two stride-2
  // classes and shift within them, so every retrain sees different shots.
  const std::size_t start = k * 2401 % n;
  for (std::size_t j = 0; j < kSliceShots && j < n; ++j) idx.push_back(train[(start + 2 * j) % n]);
  return idx;
}

}  // namespace

void recalibrate(const Setup& s, std::size_t k, StreamingEngine& engine, std::size_t shard,
                 RecalStats& stats, SpanLog* log, SwapBook* book,
                 const std::function<EngineBackend(const EngineBackend&)>& wrap) {
  const std::int64_t t0 = now_ns();
  ProposedConfig pc;
  pc.trainer.seed = 77 + k;
  const std::vector<std::size_t> slice = retrain_slice(s, k);
  ProposedDiscriminator d =
      ProposedDiscriminator::train(s.ds.shots, s.ds.training_labels, slice, s.ds.chip, pc);
  const std::int64_t t1 = now_ns();
  std::ostringstream os;
  save_backend(os, d);
  const std::string bytes = os.str();
  const std::int64_t t2 = now_ns();
  std::istringstream is(bytes);
  BackendSnapshot snap = load_backend(is);
  const std::int64_t t3 = now_ns();
  if (book) book->started[shard].fetch_add(1);
  engine.swap_shard(shard, wrap(snap.backend()));
  const std::int64_t t4 = now_ns();
  if (book) {
    book->versions.push_back(snap);
    book->installed[shard].push_back(book->versions.size() - 1);
    book->done[shard].fetch_add(1);
  }
  stats.train_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  stats.save_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  stats.load_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  stats.bytes.push_back(static_cast<double>(bytes.size()));
  stats.swap_us.push_back(ns_to_us(t4 - t3));
  stats.recal_s.push_back(static_cast<double>(t4 - t0) * 1e-9);
  if (log) {
    log->add("train", k, t0, t1, slice.size());
    log->add("save_backend", k, t1, t2, bytes.size());
    log->add("load_backend", k, t2, t3);
    log->add("swap_shard", shard, t3, t4);
  }
  std::cout << "recalibration " << k << " -> shard " << shard << ": "
            << stats.recal_s.back() << " s (train " << stats.train_s.back() << " s)\n";
}

}  // namespace mlqr_benchmark
