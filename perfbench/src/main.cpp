// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload <dashboard|federated|ingest> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Diagnostics go to stderr; the last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics (plus the tracing overhead) with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <dashboard|federated|ingest> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
      have_seconds = o.seconds > 0;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = o.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(stderr, "[host] %zu cores, simd tier %s\n", o.nproc,
               std::string(common::simd::tier_name(common::simd::active_tier())).c_str());

  Result r;
  try {
    if (o.workload == "dashboard") {
      r = run_dashboard(o);
    } else if (o.workload == "federated") {
      r = run_federated(o);
    } else if (o.workload == "ingest") {
      r = run_ingest(o);
    } else {
      usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (o.trace) {
    // Every per-layer metric is reported; a layer this workload does not
    // exercise did no work and reads 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (r.metrics.find(name) == r.metrics.end()) r.set(name, 0.0, unit);
    }
  }
  for (const std::string& e : r.errors) std::fprintf(stderr, "[gate] FAIL %s\n", e.c_str());
  for (const auto& [name, vu] : r.metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  print_result(r);
  return 0;
}
