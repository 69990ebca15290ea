// The repository benchmark's driver binary.
//
//   mlqr_benchmark --workload <batch_offline|stream_qec|stream_fanin|recal_swap>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--setup-repeats <n>] [--spans-out <path>]
//
// Builds the shared set-up from the seed, runs the workload for --seconds,
// checks every output, and prints one "metric <name> <value> <unit>" line
// per measured metric followed by a final "RESULT {json}" line. With
// --trace 1 the run also measures every layer (see benchmark/README.md)
// and, with --spans-out, writes its spans as CSV. Exit status is 0 only
// when every correctness check passed.
#include <sys/resource.h>

#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"

using namespace mlqr_benchmark;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mlqr_benchmark: " << why
            << "\nusage: mlqr_benchmark --workload <batch_offline|stream_qec|stream_fanin|"
               "recal_swap> --seed <n> --seconds <s> --trace <0|1> [--setup-repeats <n>] "
               "[--spans-out <path>]\n";
  std::exit(2);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  int setup_repeats = 2;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--setup-repeats") setup_repeats = std::stoi(v);
      else if (a == "--spans-out") spans_out = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  using Run = void (*)(const Setup&, const Options&, Report&, SpanLog*);
  Run run = nullptr;
  if (o.workload == "batch_offline") run = run_batch_offline;
  else if (o.workload == "stream_qec") run = run_stream_qec;
  else if (o.workload == "stream_fanin") run = run_stream_fanin;
  else if (o.workload == "recal_swap") run = run_recal_swap;
  else usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0) || setup_repeats < 1) usage("--seconds and --setup-repeats must be > 0");

  std::cout << "workload " << o.workload << " seed " << o.seed << " seconds " << o.seconds
            << " trace " << o.trace << " simd_tier " << mlqr::simd::tier() << " nproc "
            << std::thread::hardware_concurrency() << "\n";
  Report report;
  SpanLog log(o.trace ? (1u << 17) : 0);
  try {
    const auto setup = build_setup(o.seed, setup_repeats, report);
    std::cout << "engine workers " << setup->workers << ", peak RSS after set-up "
              << peak_rss_mib() << " MiB\n";
    run(*setup, o, report, o.trace ? &log : nullptr);
    report.metric("setup_s", setup->setup_s, "s");
    report.metric("fidelity_f5q", setup->fidelity[kFloat], "fraction");
    report.metric("fidelity_f5q_int16", setup->fidelity[kInt16], "fraction");
    report.metric("fidelity_f5q_int8", setup->fidelity[kInt8], "fraction");
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  if (o.trace && !spans_out.empty()) {
    if (log.dropped() > 0) std::cout << "note: " << log.dropped() << " spans dropped (log full)\n";
    if (!log.write_csv(spans_out)) report.fail("cannot write spans to " + spans_out);
  }
  report.print(std::cout);
  return report.failed() == 0 ? 0 : 1;
}
