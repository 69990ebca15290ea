// The four workloads. batch_offline is the closed-loop process_batch
// pass; the three streaming workloads share one load generator
// (run_stream): a producer thread on a precomputed Poisson schedule (or a
// closed loop), an in-order consumer timing every shot from its due time,
// and an optional recalibration driver.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "pipeline/recalibration.h"

namespace mlqr_benchmark {

using namespace mlqr;

namespace {

constexpr double kWarmupS = 0.5;
constexpr std::size_t kTicketSpanCap = 20000;  ///< Per-ticket spans kept.

struct StreamPlan {
  std::size_t shards = 1;
  double rate = 0.0;  ///< Offered shots/s; 0 = closed loop.
  std::size_t queue_capacity = 1024;
  bool keyed = false;  ///< submit(frame, key = ticket).
  /// recal_swap: every shot a submit_reference pushed into a ShotReservoir,
  /// drift monitors on and polled every 50 ms, and the retrain schedule.
  bool recal = false;
};

/// Per-ticket ring columns: in-flight tickets never exceed queue_capacity,
/// so with more than 2 x capacity slots the producer cannot reuse a slot
/// before the consumer has read it (both sides synchronize through the
/// engine's own lock in submit/wait).
std::size_t ring_size(const StreamPlan& plan) { return 2 * plan.queue_capacity + 2; }

StreamingConfig engine_config(const Setup& s, const StreamPlan& plan) {
  StreamingConfig cfg;
  cfg.queue_capacity = plan.queue_capacity;
  cfg.batch_max = 64;
  cfg.deadline_us = 100;
  cfg.drift.enabled = plan.recal;
  cfg.engine.threads = s.workers;
  return cfg;
}

/// A StreamingEngine over `plan.shards` float shards, plus the tracing
/// state its timing decorators write into.
struct Rig {
  ClassifyBook book;
  TicketSpans spans;
  bool trace = false;
  std::unique_ptr<StreamingEngine> engine;

  Rig(const Setup& s, const StreamPlan& plan, bool traced) : trace(traced) {
    if (trace) spans.init(s, ring_size(plan));
    std::vector<EngineBackend> shards(plan.shards, wrap(s.backends[kFloat].backend()));
    engine = std::make_unique<StreamingEngine>(std::move(shards), engine_config(s, plan));
  }
  EngineBackend wrap(const EngineBackend& b) {
    return trace ? timed_backend(b, &book, &spans) : b;
  }
};

struct StreamResult {
  double shots_per_s = 0, p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0;
  double p50_all_us = 0;  ///< Median over every ticket, for the breakdown.
  std::size_t samples = 0;
  double lateness_p50_us = 0, lateness_p99_us = 0, offered_per_s = 0;
  double submit_us = 0, queue_wait_us = 0, classify_us = 0, completion_us = 0;
  double reservoir_push_us = 0, drift_poll_us = 0;
  std::uint64_t backlog_max = 0;
};

/// Everything the recal_swap label check needs per ticket.
struct TicketLog {
  std::vector<std::uint32_t> frame;
  std::vector<std::uint8_t> shard;
  std::vector<std::uint16_t> v_lo, v_hi;  ///< Acceptable snapshot range.
  std::vector<std::int8_t> labels;
};

using SideJob = std::function<void(std::int64_t window_begin, std::int64_t window_end)>;

StreamResult run_stream(const Setup& s, const StreamPlan& plan, const Options& o, Rig& rig,
                        Report& report, SpanLog* log, SwapBook* swaps, const SideJob& side) {
  StreamingEngine& engine = *rig.engine;
  const std::size_t nq = s.n_qubits();
  const std::size_t P = s.pool.size();
  const std::size_t R = ring_size(plan);
  const bool open = plan.rate > 0.0;
  const double run_s = kWarmupS + o.seconds;

  // Inputs from the seed: the frame order and, in an open loop, the
  // absolute-rate Poisson schedule (ns offsets from t0).
  Rng rng(0x5EED0000ULL + o.seed);
  const std::vector<std::size_t> order = rng.permutation(P);
  std::vector<std::int64_t> schedule;
  if (open) {
    double t = 0.0;
    while ((t += rng.exponential(plan.rate)) < run_s)
      schedule.push_back(static_cast<std::int64_t>(t * 1e9));
  }

  // Per-ticket columns, indexed ticket % R.
  std::vector<std::int64_t> due(R), begin(R), end(R);
  std::vector<std::uint32_t> frame_of(R), d0(R);
  std::vector<float> lat_us, late_us, submit_us, wait_us, cls_us, done_us;
  const std::size_t expect = open ? schedule.size() : 300000 * static_cast<std::size_t>(run_s + 1);
  lat_us.reserve(expect);
  late_us.reserve(expect);
  if (rig.trace) {
    submit_us.reserve(expect);
    wait_us.reserve(expect);
    cls_us.reserve(expect);
    done_us.reserve(expect);
  }
  TicketLog tlog;
  if (swaps) {
    tlog.frame.reserve(expect);
    tlog.shard.reserve(expect);
    tlog.v_lo.reserve(expect);
    tlog.v_hi.reserve(expect);
    tlog.labels.reserve(expect * nq);
  }
  ShotReservoir reservoir(4096, nq);
  std::vector<float> push_us, poll_us;
  if (plan.recal) push_us.reserve(expect);

  std::atomic<std::uint64_t> issued{0}, consumed{0}, final_count{0};
  std::atomic<bool> producer_done{false};
  std::uint64_t backlog_max = 0, offered_in_window = 0;
  const std::int64_t t0 = now_ns() + 5'000'000;
  const std::int64_t w0 = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t w1 = t0 + static_cast<std::int64_t>(run_s * 1e9);
  std::exception_ptr producer_error, consumer_error;

  std::thread producer([&] {
    try {
      // 1 ns timer slack: sleep_until wakes on time instead of up to the
      // default 50 us late, without spinning a core.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::uint64_t i = 0;
      for (;; ++i) {
        std::int64_t d;
        if (open) {
          if (i >= schedule.size()) break;
          d = t0 + schedule[i];
          while (now_ns() < d) std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(d)));
        } else {
          d = now_ns();  // Closed loop: due when the previous submit returned.
          if (d >= w1) break;
        }
        const std::size_t slot = i % R;
        const auto p = static_cast<std::uint32_t>(order[i % P]);
        frame_of[slot] = p;
        due[slot] = d;
        if (rig.trace) rig.spans.ticket_of_pool[p] = i;
        const std::size_t shard = i % plan.shards;
        if (swaps) d0[slot] = swaps->done[shard].load();
        const IqTrace& f = s.frame(p);
        const std::span<const int> truth(s.truth(p), nq);
        const std::int64_t b = now_ns();
        begin[slot] = b;
        StreamingEngine::Ticket t;
        if (plan.recal)
          t = engine.submit_reference(f, i, truth);
        else if (plan.keyed)
          t = engine.submit(f, i);
        else
          t = engine.submit(f);
        if (rig.trace) end[slot] = now_ns();
        if (t != i) throw std::runtime_error("ticket numbering out of step");
        issued.store(i + 1, std::memory_order_release);
        if (d >= w0 && d < w1) ++offered_in_window;
        backlog_max = std::max<std::uint64_t>(backlog_max, i + 1 - consumed.load());
        if (plan.recal) {
          const std::int64_t pb = now_ns();
          reservoir.push(f, truth);
          push_us.push_back(static_cast<float>(ns_to_us(now_ns() - pb)));
        }
      }
      final_count.store(i);
    } catch (...) {
      producer_error = std::current_exception();
      final_count.store(issued.load());
    }
    producer_done.store(true);
  });

  // The window splits into 250 ms sub-windows. Latency quantiles are taken
  // per sub-window and reported as their best decile; the completed-shot
  // count per sub-window as its median.
  const std::size_t n_sub = std::max<std::size_t>(1, static_cast<std::size_t>(o.seconds * 4));
  const auto sub_of = [&](std::int64_t t) {
    return std::min<std::size_t>(n_sub - 1, static_cast<std::size_t>((t - w0) * static_cast<std::int64_t>(n_sub) / (w1 - w0)));
  };
  std::vector<std::vector<double>> lat_sub(n_sub);
  std::vector<double> done_sub(n_sub, 0.0);
  std::uint64_t mismatched = 0, not_done = 0;
  std::thread consumer([&] {
    try {
      std::vector<int> out(nq);
      std::int64_t next_poll = w0;
      for (std::uint64_t i = 0;; ++i) {
        ShotStatus st = ShotStatus::kTimedOut;
        bool have = false;
        while (!have) {
          if (i < issued.load(std::memory_order_acquire)) {
            st = engine.wait_result(i, out);
            have = true;
          } else if (producer_done.load() && i >= final_count.load()) {
            break;
          } else {
            st = engine.wait_for(i, out, std::chrono::milliseconds(2));
            have = st != ShotStatus::kTimedOut;
          }
        }
        if (!have) break;
        const std::int64_t done = now_ns();
        consumed.store(i + 1);
        const std::size_t slot = i % R;
        const std::int64_t d = due[slot];
        if (done >= w0 && done < w1) done_sub[sub_of(done)] += 1.0;
        const std::uint32_t p = frame_of[slot];
        if (st != ShotStatus::kDone) {
          ++not_done;
        } else if (swaps) {
          const std::size_t shard = i % plan.shards;
          tlog.frame.push_back(p);
          tlog.shard.push_back(static_cast<std::uint8_t>(shard));
          tlog.v_lo.push_back(static_cast<std::uint16_t>(d0[slot]));
          tlog.v_hi.push_back(static_cast<std::uint16_t>(swaps->started[shard].load()));
          for (int l : out) tlog.labels.push_back(static_cast<std::int8_t>(l));
        } else if (!std::equal(out.begin(), out.end(), s.ref[kFloat].begin() + p * nq)) {
          ++mismatched;
        }
        if (d >= w0 && d < w1) {
          lat_us.push_back(static_cast<float>(ns_to_us(done - d)));
          lat_sub[sub_of(d)].push_back(ns_to_us(done - d));
          late_us.push_back(static_cast<float>(ns_to_us(begin[slot] - d)));
          if (rig.trace) {
            const std::int64_t cb = rig.spans.cls_begin[slot], ce = rig.spans.cls_end[slot];
            submit_us.push_back(static_cast<float>(ns_to_us(end[slot] - begin[slot])));
            wait_us.push_back(static_cast<float>(ns_to_us(cb - end[slot])));
            cls_us.push_back(static_cast<float>(ns_to_us(ce - cb)));
            done_us.push_back(static_cast<float>(ns_to_us(done - ce)));
            if (log && lat_us.size() <= kTicketSpanCap) {
              log->add("submit", i, begin[slot], end[slot]);
              log->add("classify", i, cb, ce);
              log->add("wait", i, ce, done);
            }
          }
        }
        if (plan.recal && done >= next_poll) {
          for (std::size_t sh = 0; sh < plan.shards; ++sh) {
            const std::int64_t pb = now_ns();
            const DriftReport dr = engine.drift(sh);
            const std::int64_t pe = now_ns();
            poll_us.push_back(static_cast<float>(ns_to_us(pe - pb)));
            if (log) log->add("drift", sh, pb, pe, dr.samples);
          }
          next_poll += 50'000'000;
        }
      }
    } catch (...) {
      consumer_error = std::current_exception();
    }
  });

  std::exception_ptr side_error;
  std::thread side_thread;
  if (side)
    side_thread = std::thread([&] {
      try {
        side(w0, w1);
      } catch (...) {
        side_error = std::current_exception();
      }
    });
  producer.join();
  consumer.join();
  if (side_thread.joinable()) side_thread.join();
  for (const auto& e : {producer_error, consumer_error, side_error})
    if (e) std::rethrow_exception(e);

  // Books: every issued ticket resolved exactly once, none lost.
  const StreamingStats st = engine.stats();
  const std::uint64_t n = final_count.load();
  report.attempt(n);
  report.fail("tickets never resolved", n - std::min(n, consumed.load()));
  if (st.submitted != n || st.completed != n)
    report.fail("engine books do not balance (completed != submitted)");
  report.fail("tickets failed or shed", not_done);
  report.fail("streaming labels differ from sync labels", mismatched);

  if (swaps) {
    // Sync labels of every snapshot that served, then each ticket against
    // the snapshots its shard could have been running.
    std::vector<std::vector<int>> sync(swaps->versions.size());
    for (std::size_t v = 0; v < sync.size(); ++v) {
      EngineConfig ec;
      ec.threads = s.workers;
      ReadoutEngine eng(swaps->versions[v].backend(), ec);
      sync[v] = eng.process_batch(s.ds.shots, s.pool).labels;
    }
    std::uint64_t bad = 0;
    for (std::size_t t = 0; t < tlog.frame.size(); ++t) {
      const std::size_t shard = tlog.shard[t];
      const std::size_t hi = std::min<std::size_t>(tlog.v_hi[t], swaps->installed[shard].size() - 1);
      bool ok = false;
      for (std::size_t k = tlog.v_lo[t]; k <= hi && !ok; ++k) {
        const std::vector<int>& L = sync[swaps->installed[shard][k]];
        ok = std::equal(L.begin() + tlog.frame[t] * nq, L.begin() + (tlog.frame[t] + 1) * nq,
                        tlog.labels.begin() + t * nq,
                        [](int a, std::int8_t b) { return a == b; });
      }
      if (!ok) ++bad;
    }
    report.fail("recal_swap labels differ from the serving snapshot's sync labels", bad);
  }

  StreamResult r;
  const auto to_d = [](const std::vector<float>& v) { return std::vector<double>(v.begin(), v.end()); };
  const std::vector<double> lat = to_d(lat_us);
  r.samples = lat.size();
  std::vector<double> p50_sub, p90_sub;
  for (auto& v : lat_sub) {
    p50_sub.push_back(quantile(v, 0.5));
    p90_sub.push_back(quantile(v, 0.9));
  }
  r.shots_per_s = median(done_sub) * static_cast<double>(n_sub) / o.seconds;
  r.p50_us = best_decile_time(p50_sub);
  r.p90_us = best_decile_time(p90_sub);
  r.p50_all_us = quantile(lat, 0.5);
  r.p99_us = quantile(lat, 0.99);
  r.p999_us = quantile(lat, 0.999);
  const std::vector<double> late = to_d(late_us);
  r.lateness_p50_us = quantile(late, 0.5);
  r.lateness_p99_us = quantile(late, 0.99);
  r.offered_per_s = static_cast<double>(offered_in_window) / o.seconds;
  r.backlog_max = backlog_max;
  if (rig.trace) {
    r.submit_us = median(to_d(submit_us));
    r.queue_wait_us = median(to_d(wait_us));
    r.classify_us = median(to_d(cls_us));
    r.completion_us = median(to_d(done_us));
    if (rig.spans.unmapped.load() > 0)
      std::cout << "note: " << rig.spans.unmapped.load() << " classify calls not mapped to a ticket\n";
  }
  r.reservoir_push_us = median(to_d(push_us));
  r.drift_poll_us = median(to_d(poll_us));
  std::cout << "stream: " << n << " tickets, " << r.shots_per_s << " shots/s in window, p50 "
            << r.p50_us << " us, p90 " << r.p90_us << " us (" << r.samples
            << " samples), generator lateness p50 " << r.lateness_p50_us << " us\n";
  return r;
}

/// Per-layer metrics of a streaming run (traced runs only).
void report_stream_layers(const Setup& s, const StreamResult& r, Rig& rig, Report& rep,
                          double window_s, bool engine_layer) {
  const StreamingStats st = rig.engine->stats();
  rep.metric("pipeline.stream.submit_us", r.submit_us, "us");
  rep.metric("pipeline.stream.queue_wait_us", r.queue_wait_us, "us");
  rep.metric("pipeline.stream.classify_us", r.classify_us, "us");
  rep.metric("pipeline.stream.completion_us", r.completion_us, "us");
  rep.metric("pipeline.stream.mean_batch",
             st.batches ? static_cast<double>(st.completed) / static_cast<double>(st.batches) : 0.0,
             "shots");
  rep.metric("pipeline.stream.batches", static_cast<double>(st.batches), "count");
  rep.metric("pipeline.stream.backlog_max", static_cast<double>(r.backlog_max), "count");
  rep.metric("pipeline.stream.shed", static_cast<double>(st.shed), "count");
  rep.metric("pipeline.stream.failed", static_cast<double>(st.failed), "count");
  rep.metric("pipeline.stream.rerouted", static_cast<double>(st.rerouted), "count");
  rep.metric("pipeline.stream.shot_p90_us", r.p90_us, "us");
  rep.metric("pipeline.stream.shot_p99_us", r.p99_us, "us");
  rep.metric("pipeline.stream.shot_p999_us", r.p999_us, "us");
  rep.metric("pipeline.stream.latency_samples", static_cast<double>(r.samples), "count");
  rep.metric("gen.lateness_p50_us", r.lateness_p50_us, "us");
  rep.metric("gen.lateness_p99_us", r.lateness_p99_us, "us");
  rep.metric("gen.offered_shots_per_s", r.offered_per_s, "1/s");
  if (engine_layer) {
    // The classify decorator sees every classify call the dispatcher's
    // EngineCore makes: the grouping the stream actually gets.
    const double shots = static_cast<double>(rig.book.shots.load());
    rep.metric("pipeline.engine.group_size_mean",
               shots / std::max(1.0, static_cast<double>(rig.book.calls.load())), "shots");
    rep.metric("pipeline.engine.gemm_shot_frac",
               static_cast<double>(rig.book.gemm_shots.load()) / std::max(1.0, shots),
               "fraction");
    rep.metric("pipeline.engine.classify_busy_frac",
               static_cast<double>(rig.book.busy_ns.load()) * 1e-9 /
                   (static_cast<double>(s.workers) * (window_s + kWarmupS)),
               "fraction");
  }
  // How much of the median latency the per-ticket span medians account for.
  const double covered = r.lateness_p50_us + r.submit_us + r.queue_wait_us + r.classify_us +
                         r.completion_us;
  std::cout << "p50 breakdown (medians): lateness " << r.lateness_p50_us << " + submit "
            << r.submit_us << " + queue wait " << r.queue_wait_us << " + classify "
            << r.classify_us << " + completion " << r.completion_us << " = " << covered
            << " us of the median latency " << r.p50_all_us << " us; unaccounted "
            << r.p50_all_us - covered << " us\n";
}

/// Metrics of the recalibration layer: from the run's own retrains on
/// recal_swap, from one probe recalibration on the other workloads.
void report_recal_layers(const RecalStats& rs, double push_us, double poll_us, Report& rep) {
  rep.metric("pipeline.recal.recal_s", median(rs.recal_s), "s");
  rep.metric("pipeline.recal.train_s", median(rs.train_s), "s");
  rep.metric("pipeline.snapshot.save_ms", median(rs.save_ms), "ms");
  rep.metric("pipeline.snapshot.load_ms", median(rs.load_ms), "ms");
  rep.metric("pipeline.snapshot.bytes", median(rs.bytes), "B");
  rep.metric("pipeline.stream.swap_block_us", median(rs.swap_us), "us");
  rep.metric("pipeline.recal.reservoir_push_us", push_us, "us");
  rep.metric("pipeline.stream.drift_poll_us", poll_us, "us");
}

/// Traced runs of workloads without retrains: one recalibration into the
/// (now idle) engine, plus timed drift polls and reservoir pushes.
void recal_probe(const Setup& s, Rig& rig, Report& rep, SpanLog* log) {
  RecalStats rs;
  recalibrate(s, 0, *rig.engine, 0, rs, log, nullptr,
              [&](const EngineBackend& b) { return rig.wrap(b); });
  std::vector<double> poll, push;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t b = now_ns();
    (void)rig.engine->drift(0);
    poll.push_back(ns_to_us(now_ns() - b));
  }
  ShotReservoir reservoir(4096, s.n_qubits());
  for (std::size_t p = 0; p < 8192; ++p) {
    const std::int64_t b = now_ns();
    reservoir.push(s.frame(p % s.pool.size()), {s.truth(p % s.pool.size()), s.n_qubits()});
    push.push_back(ns_to_us(now_ns() - b));
  }
  report_recal_layers(rs, median(push), median(poll), rep);
}

void report_sync_rates(const SyncRates& sr, Report& r) {
  r.metric("float_shots_per_s", sr.shots_per_s[kFloat], "1/s");
  r.metric("int16_shots_per_s", sr.shots_per_s[kInt16], "1/s");
  r.metric("int8_shots_per_s", sr.shots_per_s[kInt8], "1/s");
}

void report_stream_e2e(const StreamResult& sr, Report& r) {
  r.metric("shots_per_s", sr.shots_per_s, "1/s");
  r.metric("shot_p50_us", sr.p50_us, "us");
}

constexpr std::size_t kGateRounds = 8;

StreamPlan qec_plan() {
  StreamPlan p;
  p.shards = 1;
  p.rate = 20000.0;
  return p;
}

/// Shared body of the three streaming workloads.
void run_streaming(const Setup& s, const Options& o, Report& r, SpanLog* log,
                   const StreamPlan& plan) {
  const bool recal = plan.recal;
  report_sync_rates(sync_passes(s, kGateRounds, 0.0, o.trace, r, log), r);
  Rig rig(s, plan, o.trace);
  SwapBook book;
  RecalStats rs;
  SideJob side;
  if (recal) {
    book.versions.push_back(s.backends[kFloat]);
    for (std::size_t sh = 0; sh < plan.shards; ++sh) book.installed[sh].push_back(0);
    // A fixed schedule: retrain k starts at k x (window / n), or as soon as
    // retrain k-1 has swapped in, whichever is later.
    side = [&](std::int64_t w0, std::int64_t w1) {
      const std::size_t n = std::max<std::size_t>(1, std::lround(o.seconds / 3.0));
      for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t at = w0 + (w1 - w0) * static_cast<std::int64_t>(k) /
                                         static_cast<std::int64_t>(n);
        while (now_ns() < at)
          std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(at)));
        recalibrate(s, k, *rig.engine, k % plan.shards, rs, log, &book,
                    [&](const EngineBackend& b) { return rig.wrap(b); });
      }
    };
  }
  const StreamResult sr = run_stream(s, plan, o, rig, r, log, recal ? &book : nullptr, side);
  report_stream_e2e(sr, r);
  if (recal)
    std::cout << "recal_s median " << median(rs.recal_s) << " s over " << rs.recal_s.size()
              << " retrains\n";
  if (!o.trace) return;
  report_stream_layers(s, sr, rig, r, o.seconds, true);
  r.metric("trace.shot_p50_us", sr.p50_us, "us");
  if (recal)
    report_recal_layers(rs, sr.reservoir_push_us, sr.drift_poll_us, r);
  else
    recal_probe(s, rig, r, log);
  layer_probe(s, r);
}

}  // namespace

void run_batch_offline(const Setup& s, const Options& o, Report& r, SpanLog* log) {
  const SyncRates sr = sync_passes(s, 0, o.seconds, o.trace, r, log);
  report_sync_rates(sr, r);
  r.metric("shots_per_s", sr.all_shots_per_s, "1/s");
  r.metric("shot_p50_us", sr.float_p50_us, "us");
  if (!o.trace) return;
  // batch_offline has no streaming engine: a one-second stream_qec probe
  // measures the stream, generator and recalibration layers.
  Options probe = o;
  probe.seconds = 1.0;
  const StreamPlan plan = qec_plan();
  Rig rig(s, plan, true);
  const StreamResult st = run_stream(s, plan, probe, rig, r, log, nullptr, {});
  report_stream_layers(s, st, rig, r, probe.seconds, false);
  r.metric("trace.shot_p50_us", sr.float_p50_us, "us");
  recal_probe(s, rig, r, log);
  layer_probe(s, r);
}

void run_stream_qec(const Setup& s, const Options& o, Report& r, SpanLog* log) {
  run_streaming(s, o, r, log, qec_plan());
}

void run_stream_fanin(const Setup& s, const Options& o, Report& r, SpanLog* log) {
  StreamPlan p;
  p.shards = 4;
  p.rate = 0.0;
  p.queue_capacity = 4096;
  p.keyed = true;
  run_streaming(s, o, r, log, p);
}

void run_recal_swap(const Setup& s, const Options& o, Report& r, SpanLog* log) {
  StreamPlan p;
  p.shards = 2;
  p.rate = 10000.0;
  p.recal = true;
  run_streaming(s, o, r, log, p);
}

}  // namespace mlqr_benchmark
