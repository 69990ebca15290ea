// Report, order statistics, the shared set-up and the benchmark-side
// tracer (timing decorator, ticket spans, span log).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/simd.h"
#include "common/timer.h"
#include "discrim/quantized8_proposed.h"
#include "discrim/quantized_proposed.h"
#include "readout/experiment.h"

namespace mlqr_benchmark {

using namespace mlqr;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (auto& m : metrics_)
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& why, std::uint64_t n) {
  if (n == 0) return;
  failed_ += n;
  if (reasons_[why]++ == 0) std::cout << "FAIL: " << why << " (x" << n << ")\n";
}

void Report::print(std::ostream& os) const {
  const auto num = [](double v) {
    std::ostringstream s;
    s << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    return s.str();
  };
  for (const auto& [name, vu] : metrics_)
    os << "metric " << std::left << std::setw(36) << name << " " << num(vu.first) << " "
       << vu.second << "\n";
  for (const auto& [why, n] : reasons_) os << "failure: " << why << " (" << n << " events)\n";
  const bool correct = failed_ == 0;
  os << "RESULT {\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics_[i].first << "\": {\"value\": "
       << num(metrics_[i].second.first) << ", \"unit\": \"" << metrics_[i].second.second
       << "\"}";
  os << "}}\n";
}

const ProposedDiscriminator& Setup::float_design() const {
  return *backends[kFloat].as<ProposedDiscriminator>();
}

namespace {

/// F5Q of pool-major labels against the pool's ground truth.
double pool_fidelity(const Setup& s, const std::vector<int>& labels) {
  const std::size_t nq = s.n_qubits();
  FidelityReport rep;
  rep.per_qubit.resize(nq);
  for (std::size_t p = 0; p < s.pool.size(); ++p)
    for (std::size_t q = 0; q < nq; ++q)
      rep.per_qubit[q].add(s.truth(p)[q], labels[p * nq + q]);
  return rep.geometric_mean_fidelity();
}

// F5Q of the per-shot reference labels at the default seed (dataset seed
// 20240508, 1000 shots per basis state, default 40-epoch trainer), as the
// sse2 build computes them: float / int16 / int8. Exact doubles — any
// change to the front-end, heads, trainer or quantizer numerics moves them.
constexpr double kPinnedFidelity[kNumBackends] = {0.92219408940954439, 0.92218692010367231,
                                                  0.9218446089103195};
constexpr std::uint64_t kDatasetSeed = 20240508;
constexpr std::size_t kShotsPerState = 1000;

std::string snapshot_bytes(const BackendSnapshot& snap) {
  std::ostringstream os;
  snap.save(os);
  return os.str();
}

}  // namespace

std::unique_ptr<Setup> build_setup(std::uint64_t seed, int repeats, Report& report) {
  std::unique_ptr<Setup> s;
  std::vector<double> total, dataset, train, quantize;
  std::string first_bytes[kNumBackends];
  for (int r = 0; r < repeats; ++r) {
    // One dataset in memory at a time, and its pages back to the system
    // before the next repeat, so peak RSS is one set-up's.
    s.reset();
    malloc_trim(0);
    auto cur = std::make_unique<Setup>();
    Timer t;
    DatasetConfig dc;
    dc.shots_per_basis_state = kShotsPerState;
    dc.seed = kDatasetSeed + seed;
    cur->ds = generate_dataset(dc);
    dataset.push_back(t.seconds());
    Timer tt;
    const ReadoutDataset& ds = cur->ds;
    cur->backends[kFloat] = BackendSnapshot::wrap(ProposedDiscriminator::train(
        ds.shots, ds.training_labels, ds.train_idx, ds.chip, ProposedConfig{}));
    train.push_back(tt.seconds());
    Timer tq;
    const auto& fd = cur->float_design();
    cur->backends[kInt16] = BackendSnapshot::wrap(
        QuantizedProposedDiscriminator::quantize(fd, ds.shots, ds.train_idx));
    cur->backends[kInt8] = BackendSnapshot::wrap(
        Quantized8ProposedDiscriminator::quantize(fd, ds.shots, ds.train_idx));
    quantize.push_back(tq.seconds());
    total.push_back(t.seconds());
    std::cout << "setup " << r << ": " << total.back() << " s (dataset " << dataset.back()
              << " s, train " << train.back() << " s, quantize " << quantize.back()
              << " s)\n";
    for (std::size_t b = 0; b < kNumBackends; ++b) {
      std::string bytes = snapshot_bytes(cur->backends[b]);
      if (r == 0)
        first_bytes[b] = std::move(bytes);
      else if (bytes != first_bytes[b])
        report.fail(std::string("set-up repeat trained a different ") + backend_tag(b) +
                    " snapshot");
    }
    s = std::move(cur);
  }
  s->setup_s = median(total);
  s->dataset_s = median(dataset);
  s->train_s = median(train);
  s->quantize_s = median(quantize);
  s->workers = std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  s->pool = s->ds.test_idx;

  // Per-shot reference labels (the engine's per-shot path), the exact
  // fidelity they give, and the batched evaluation path agreeing with it.
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    EngineConfig ec;
    ec.threads = s->workers;
    ec.batched_inference = false;
    ReadoutEngine eng(s->backends[b].backend(), ec);
    s->ref[b] = eng.process_batch(s->ds.shots, s->pool).labels;
    s->fidelity[b] = pool_fidelity(*s, s->ref[b]);
    const double eval = evaluate_on_test(s->backends[b].backend(), s->ds).geometric_mean_fidelity();
    report.attempt(1);
    if (eval != s->fidelity[b])
      report.fail(std::string(backend_tag(b)) + " batched F5Q differs from per-shot F5Q");
    if (seed == 0 && std::strcmp(simd::tier(), "sse2") == 0) {
      report.attempt(1);
      if (s->fidelity[b] != kPinnedFidelity[b])
        report.fail(std::string(backend_tag(b)) + " F5Q at the default seed moved off its pin");
    }
  }
  std::cout << std::setprecision(17) << "F5Q float " << s->fidelity[kFloat] << " int16 "
            << s->fidelity[kInt16] << " int8 " << s->fidelity[kInt8] << "\n"
            << std::setprecision(6);
  return s;
}

// ---- tracer ----

std::uint64_t TicketSpans::frame_key(const IqTrace& t) {
  std::uint32_t a = 0, b = 0, c = 0;
  std::memcpy(&a, &t.i[0], 4);
  std::memcpy(&b, &t.q[0], 4);
  std::memcpy(&c, &t.i[1], 4);
  return ((std::uint64_t{a} << 32) | b) ^ (std::uint64_t{c} * 0x9e3779b97f4a7c15ULL);
}

void TicketSpans::init(const Setup& s, std::size_t ring) {
  pool_of_key.clear();
  pool_of_key.reserve(s.pool.size() * 2);
  for (std::size_t p = 0; p < s.pool.size(); ++p)
    pool_of_key.emplace(frame_key(s.frame(p)), static_cast<std::uint32_t>(p));
  ticket_of_pool.assign(s.pool.size(), 0);
  cls_begin.assign(ring, 0);
  cls_end.assign(ring, 0);
  unmapped = s.pool.size() - pool_of_key.size();  // Key collisions, if any.
}

void TicketSpans::record(const IqTrace& t, std::int64_t b, std::int64_t e) {
  const auto it = pool_of_key.find(frame_key(t));
  if (it == pool_of_key.end()) {
    unmapped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t slot = ticket_of_pool[it->second] % cls_begin.size();
  cls_begin[slot] = b;
  cls_end[slot] = e;
}

EngineBackend timed_backend(const EngineBackend& inner, ClassifyBook* book,
                            TicketSpans* spans) {
  auto in = std::make_shared<const EngineBackend>(inner);
  EngineBackend::ClassifyBatchInto batch_fn;
  if (in->supports_batch())
    batch_fn = [in, book, spans](std::size_t lo, std::size_t hi, const ShotFrameAt& frame_at,
                                 InferenceScratch& sc, const ShotLabelsAt& labels_at) {
      const std::int64_t b = now_ns();
      in->classify_batch_into(lo, hi, frame_at, sc, labels_at);
      const std::int64_t e = now_ns();
      book->busy_ns.fetch_add(e - b, std::memory_order_relaxed);
      book->calls.fetch_add(1, std::memory_order_relaxed);
      book->shots.fetch_add(hi - lo, std::memory_order_relaxed);
      book->gemm_shots.fetch_add(hi - lo, std::memory_order_relaxed);
      if (spans)
        for (std::size_t s = lo; s < hi; ++s) spans->record(frame_at(s), b, e);
    };
  EngineBackend::ClassifyScoredInto scored_fn;
  if (in->supports_scored())
    // Drift scoring re-runs a sampled shot after its classify; it is
    // classifier work (busy time) but not a shot of its own.
    scored_fn = [in, book](const IqTrace& t, InferenceScratch& sc, std::span<int> out) {
      const std::int64_t b = now_ns();
      const float conf = in->classify_scored_into(t, sc, out);
      book->busy_ns.fetch_add(now_ns() - b, std::memory_order_relaxed);
      return conf;
    };
  return EngineBackend(
      in->name(), in->num_qubits(),
      [in, book, spans](const IqTrace& t, InferenceScratch& sc, std::span<int> out) {
        const std::int64_t b = now_ns();
        in->classify_into(t, sc, out);
        const std::int64_t e = now_ns();
        book->busy_ns.fetch_add(e - b, std::memory_order_relaxed);
        book->calls.fetch_add(1, std::memory_order_relaxed);
        book->shots.fetch_add(1, std::memory_order_relaxed);
        if (spans) spans->record(t, b, e);
      },
      std::move(batch_fn), std::move(scored_fn));
}

void SpanLog::add(const char* name, std::uint64_t id, std::int64_t b, std::int64_t e,
                  std::uint64_t n) {
  std::lock_guard lock(mu_);
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;  // Preallocated: never grows while measuring.
    return;
  }
  spans_.push_back({name, id, b, e, n});
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.push_back(ns_to_us(s.end_ns - s.begin_ns));
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  os << "name,id,begin_ns,end_ns,n\n";
  for (const Span& s : spans_)
    os << s.name << "," << s.id << "," << (s.begin_ns - t0) << "," << (s.end_ns - t0) << ","
       << s.n << "\n";
  os.flush();
  return os.good();
}

}  // namespace mlqr_benchmark
