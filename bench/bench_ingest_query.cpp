// §1.2 claim: "the sheer volume of the data that must be addressed... at the
// granularity of jobs sampled frequently". Microbenchmarks of the ingest
// path: raw-format parsing throughput, the full ETL pipeline, and warehouse
// group-by queries over the job table.
//
// The grouped-aggregation section also measures the vectorized engine's
// thread-scaling curve, writing it to BENCH_query.json for cross-PR
// tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace supremm;

const pipeline::PipelineResult& micro_run() {
  static const pipeline::PipelineResult run =
      bench::make_run(facility::ranger(), 0.005, 4, /*maintenance=*/false);
  return run;
}

/// Synthetic wide job table for the aggregation benchmarks: large enough
/// (1M rows) that per-row dispatch cost dominates over cache warmup.
warehouse::Table make_agg_table(std::size_t rows) {
  warehouse::Table t("agg_bench", {{"user", warehouse::ColType::kString},
                                   {"app", warehouse::ColType::kString},
                                   {"end", warehouse::ColType::kInt64},
                                   {"cpu_idle", warehouse::ColType::kDouble},
                                   {"node_hours", warehouse::ColType::kDouble}});
  std::mt19937_64 rng(bench::kSeed);
  std::uniform_int_distribution<int> user(0, 199);
  std::uniform_int_distribution<int> app(0, 49);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  std::vector<std::string> users(200);
  std::vector<std::string> apps(50);
  // GCC 12 emits a bogus -Wrestrict for inlined std::string concatenation
  // here (GCC bug 105329); the loop is plain prefix + decimal-index naming.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = std::string("u") + std::to_string(i);
  }
  for (std::size_t i = 0; i < apps.size(); ++i) {
    apps[i] = std::string("app") + std::to_string(i);
  }
#pragma GCC diagnostic pop
  for (std::size_t r = 0; r < rows; ++r) {
    t.append()
        .set("user", users[static_cast<std::size_t>(user(rng))])
        .set("app", apps[static_cast<std::size_t>(app(rng))])
        .set("end", static_cast<std::int64_t>(r % (30 * common::kDay)))
        .set("cpu_idle", frac(rng))
        .set("node_hours", 1.0 + 100.0 * frac(rng));
  }
  t.rebuild_zone_index();
  return t;
}

const warehouse::Table& agg_table() {
  static const warehouse::Table t = make_agg_table(1'000'000);
  return t;
}

std::vector<warehouse::AggSpec> agg_specs() {
  return {{"cpu_idle", warehouse::AggKind::kWeightedMean, "node_hours", "idle"},
          {"node_hours", warehouse::AggKind::kSum, "", ""},
          {"", warehouse::AggKind::kCount, "", "n"}};
}

void BM_ParseRawFile(benchmark::State& state) {
  const auto& run = micro_run();
  const std::string& content = run.files.front().content;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto parsed = taccstats::parse_raw(content);
    benchmark::DoNotOptimize(parsed);
    bytes += content.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ParseRawFile);

void BM_IngestPipeline(benchmark::State& state) {
  const auto& run = micro_run();
  const auto science = etl::project_science_map(*run.population);
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = run.span;
  cfg.cluster = run.spec.name;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const etl::IngestPipeline ingest(cfg);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto result = ingest.run(run.files, run.acct, run.lariat_records, run.catalogue, science);
    benchmark::DoNotOptimize(result);
    bytes += result.stats.bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["jobs"] = static_cast<double>(run.result.jobs.size());
}
BENCHMARK(BM_IngestPipeline)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_WarehouseGroupBy(benchmark::State& state) {
  const auto& table = agg_table();
  for (auto _ : state) {
    auto g = warehouse::Query(table)
                 .group_by({"user"})
                 .aggregate(agg_specs())
                 .threads(static_cast<std::size_t>(state.range(0)))
                 .run();
    benchmark::DoNotOptimize(g);
  }
  state.counters["rows"] = static_cast<double>(table.rows());
}
BENCHMARK(BM_WarehouseGroupBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ProfileAnalyzer(benchmark::State& state) {
  const auto& run = micro_run();
  for (auto _ : state) {
    xdmod::ProfileAnalyzer an(run.result.jobs);
    auto tops = an.top_profiles(xdmod::GroupBy::kUser, 5);
    benchmark::DoNotOptimize(tops);
  }
}
BENCHMARK(BM_ProfileAnalyzer);

void BM_PersistenceAnalysis(benchmark::State& state) {
  const auto& run = micro_run();
  for (auto _ : state) {
    auto rep = xdmod::persistence_analysis(run.result.series, {"mem_used", "cpu_idle"},
                                           {10, 30, 100});
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_PersistenceAnalysis);

using supremm::bench::time_median;

/// The grouped-aggregation scaling study behind BENCH_query.json: the
/// vectorized engine at 1/2/4/8 threads.
void write_query_json() {
  const auto& table = agg_table();
  const double rows = static_cast<double>(table.rows());
  constexpr int kReps = 5;
  bench::BenchJson json("query");

  double t1 = 0.0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    const double t = time_median(kReps, [&] {
      auto g = warehouse::Query(table)
                   .group_by({"user"})
                   .aggregate(agg_specs())
                   .threads(threads)
                   .run();
      benchmark::DoNotOptimize(g);
    });
    if (threads == 1) t1 = t;
    json.record("group_by_vectorized")
        .num("threads", static_cast<double>(threads))
        .num("seconds", t)
        .num("rows_per_s", rows / t)
        .num("speedup_vs_1thread", t1 / t);
    std::printf("[scaling] group-by %zu thread(s): %.4f s (%.1f Mrows/s, %.2fx vs "
                "1 thread)\n",
                threads, t, rows / t / 1e6, t1 / t);
  }
  json.write("BENCH_query.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_query_json();
  return 0;
}
