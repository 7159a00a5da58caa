// Shared setup for the per-figure/table benches: one standard scaled-down
// run per cluster, cached per process, plus output helpers.
//
// Scaling note (DESIGN.md §2): the paper measured the full Ranger (3936
// nodes, 20 months) and Lonestar4 (1088 nodes, 15 months). The benches
// default to 2% / 3% of the nodes over 30-60 simulated days, which preserves
// every *shape* the paper reports (normalized profiles, efficiency lines,
// persistence ratios, distribution forms) at laptop cost. Absolute facility
// totals (TF, node counts) scale with the node count and are reported
// alongside the scaled peak for comparison.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "supremm/supremm.h"

namespace supremm::bench {

inline constexpr std::uint64_t kSeed = 2013;  // the paper's year

/// Elapsed wall-clock seconds since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Exact quantile from sorted raw samples (nearest-rank on n-1).
inline double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Fastest of raw rep timings (peak throughput).
inline double best_of(const std::vector<double>& reps) {
  return *std::min_element(reps.begin(), reps.end());
}

/// Median of raw rep timings (the upper one for an even count).
inline double median_of(std::vector<double> reps) {
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

/// Median-of-reps wall seconds of one call of `fn`.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median_of(std::move(times));
}

/// Seconds per call of `fn`: best of `reps` reps of `iters` back-to-back
/// calls, after one warm-up call.
template <typename Fn>
double time_call(int reps, int iters, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, seconds_since(t0) / iters);
  }
  return best;
}

inline pipeline::PipelineResult make_run(const facility::ClusterSpec& preset, double scale,
                                         int days, bool maintenance) {
  pipeline::PipelineConfig cfg;
  cfg.spec = facility::scaled(preset, scale);
  cfg.start = 0;
  cfg.span = days * common::kDay;
  cfg.seed = kSeed;
  cfg.with_maintenance = maintenance;
  return pipeline::run_pipeline(cfg);
}

/// Ranger at 2% (79 nodes) for 30 days with maintenance windows.
inline const pipeline::PipelineResult& ranger_run() {
  static const pipeline::PipelineResult run =
      make_run(facility::ranger(), 0.02, 30, /*maintenance=*/true);
  return run;
}

/// Lonestar4 at 3% (33 nodes) for 30 days with maintenance windows.
inline const pipeline::PipelineResult& lonestar4_run() {
  static const pipeline::PipelineResult run =
      make_run(facility::lonestar4(), 0.03, 30, /*maintenance=*/true);
  return run;
}

inline void print_experiment_header(const char* id, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("Experiment %s\n", id);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

/// Compile-target ISA, so numbers from different build hosts are comparable.
inline const char* host_isa() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  return "aarch64";
#elif defined(__riscv)
  return "riscv";
#else
  return "unknown";
#endif
}

/// Machine-readable bench output (BENCH_*.json): a flat list of records,
/// each a label plus numeric/string fields, so the perf trajectory can be
/// tracked across PRs by external tooling. Every file carries a `hardware`
/// record (core count, ISA) so trajectories are only compared like-for-like.
/// Usage:
///
///   BenchJson json("query");
///   json.record("group_by_threads").num("threads", 8).num("seconds", t);
///   json.write("BENCH_query.json");
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {
    record("hardware")
        .num("cores", static_cast<double>(std::thread::hardware_concurrency()))
        .str("isa", host_isa());
  }

  class Record {
   public:
    Record& num(std::string key, double value) {
      fields_.emplace_back(std::move(key), value);
      return *this;
    }
    Record& str(std::string key, std::string value) {
      fields_.emplace_back(std::move(key), std::move(value));
      return *this;
    }

   private:
    friend class BenchJson;
    explicit Record(std::string label) : label_(std::move(label)) {}
    std::string label_;
    std::vector<std::pair<std::string, std::variant<double, std::string>>> fields_;
  };

  Record& record(std::string label) {
    records_.push_back(Record(std::move(label)));
    return records_.back();
  }

  /// Write {"bench": ..., "records": [...]} to `path` (overwrites).
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n", bench_.c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "    {\"label\": \"%s\"", r.label_.c_str());
      for (const auto& [key, value] : r.fields_) {
        if (std::holds_alternative<double>(value)) {
          std::fprintf(f, ", \"%s\": %.9g", key.c_str(), std::get<double>(value));
        } else {
          std::fprintf(f, ", \"%s\": \"%s\"", key.c_str(),
                       std::get<std::string>(value).c_str());
        }
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string bench_;
  std::vector<Record> records_;
};

inline void print_run_info(const pipeline::PipelineResult& run) {
  std::printf("[setup] %s: %zu nodes x %zu cores, %.0f GB/node, %.1f TF scaled peak, "
              "%d days, %zu jobs ingested\n",
              run.spec.name.c_str(), run.spec.node_count, run.spec.node.cores(),
              run.spec.node.mem_gb, run.spec.peak_tflops(),
              static_cast<int>(run.span / common::kDay), run.result.jobs.size());
}

}  // namespace supremm::bench
