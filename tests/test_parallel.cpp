// Determinism suite for the parallel vectorized query engine, the
// multi-threaded archive codec and parallel collection (ctest label:
// parallel).
//
// The contract under test (DESIGN.md §7/§11): query results, QueryStats,
// group emission order and archive partition bytes are bit-identical for
// every thread count, because parallel work is laid over a canonical grid
// (zone chunks, match-list segments, codec blocks) that does not depend on
// the worker count — plus the regression tests for the group-key encoding:
// double keys group by exact bit pattern, never by a 6-digit decimal
// rendering.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/partition.h"
#include "sim_fixture.h"
#include "warehouse/query.h"
#include "warehouse/table.h"

namespace {

using namespace supremm;
namespace fs = std::filesystem;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

using supremm::testing::expect_tables_identical;

/// Small shared ingest run for the end-to-end archive tests.
const supremm::testing::SimRun& sim_run() { return supremm::testing::tiny_ranger_run(); }

/// Deterministic mixed-type table: string/int64/double keys and values,
/// including doubles that collide in their first six significant digits.
warehouse::Table make_table(std::size_t rows, bool zone_index) {
  warehouse::Table t("t", {{"user", warehouse::ColType::kString},
                           {"day", warehouse::ColType::kInt64},
                           {"bucket", warehouse::ColType::kDouble},
                           {"value", warehouse::ColType::kDouble},
                           {"weight", warehouse::ColType::kDouble}});
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  for (std::size_t r = 0; r < rows; ++r) {
    // Two bucket keys per day that agree to 6 significant digits.
    const double bucket = 0.5 + ((r % 2 == 0) ? 1e-9 : 2e-9);
    t.append()
        .set("user", std::string("u") + std::to_string(r % 17))
        .set("day", static_cast<std::int64_t>(r % 5))
        .set("bucket", bucket)
        .set("value", frac(rng) * 100.0)
        .set("weight", 0.5 + frac(rng));
  }
  if (zone_index) t.rebuild_zone_index(/*chunk_rows=*/256);
  return t;
}

std::vector<warehouse::AggSpec> all_agg_kinds() {
  return {{"value", warehouse::AggKind::kSum, "", ""},
          {"value", warehouse::AggKind::kMean, "", ""},
          {"value", warehouse::AggKind::kWeightedMean, "weight", "wm"},
          {"value", warehouse::AggKind::kMax, "", ""},
          {"value", warehouse::AggKind::kMin, "", ""},
          {"", warehouse::AggKind::kCount, "", "n"}};
}

TEST(ParallelQuery, ResultsAndStatsIdenticalAcrossThreadCounts) {
  const auto table = make_table(20000, /*zone_index=*/true);
  std::optional<warehouse::Table> reference;
  std::optional<warehouse::QueryStats> ref_stats;
  for (const std::size_t threads : kThreadCounts) {
    warehouse::Query q(table);
    auto result = q.where(warehouse::between("value", 10.0, 90.0))
                      .group_by({"user", "day", "bucket"})
                      .aggregate(all_agg_kinds())
                      .threads(threads)
                      .run();
    if (!reference) {
      reference = std::move(result);
      ref_stats = q.stats();
      continue;
    }
    expect_tables_identical(*reference, result);
    EXPECT_EQ(ref_stats->chunks_total, q.stats().chunks_total) << threads << " threads";
    EXPECT_EQ(ref_stats->chunks_pruned, q.stats().chunks_pruned) << threads << " threads";
    EXPECT_EQ(ref_stats->rows_scanned, q.stats().rows_scanned) << threads << " threads";
    EXPECT_EQ(ref_stats->rows_matched, q.stats().rows_matched) << threads << " threads";
  }
}

TEST(ParallelQuery, MatchesScalarReference) {
  const auto table = make_table(5000, /*zone_index=*/false);
  for (const std::size_t threads : kThreadCounts) {
    auto result = warehouse::Query(table)
                      .where(warehouse::ge("value", 25.0))
                      .group_by({"user"})
                      .aggregate({{"value", warehouse::AggKind::kSum, "", "vsum"},
                                  {"", warehouse::AggKind::kCount, "", "n"}})
                      .threads(threads)
                      .run();

    // Independent scalar reference in first-match order.
    std::vector<std::string> order;
    std::vector<double> sums;
    std::vector<std::int64_t> counts;
    const auto& user = table.col("user");
    const auto& value = table.col("value");
    for (std::size_t r = 0; r < table.rows(); ++r) {
      if (value.as_double(r) < 25.0) continue;
      const std::string u(user.as_string(r));
      std::size_t g = 0;
      while (g < order.size() && order[g] != u) ++g;
      if (g == order.size()) {
        order.push_back(u);
        sums.push_back(0.0);
        counts.push_back(0);
      }
      sums[g] += value.as_double(r);
      ++counts[g];
    }
    ASSERT_EQ(result.rows(), order.size());
    for (std::size_t g = 0; g < order.size(); ++g) {
      EXPECT_EQ(result.col("user").as_string(g), order[g]);
      EXPECT_EQ(result.col("n").as_int64(g), counts[g]);
      EXPECT_NEAR(result.col("vsum").as_double(g), sums[g], 1e-9 * std::abs(sums[g]));
    }
  }
}

TEST(ParallelQuery, OpaquePredicateMatchesExactKernels) {
  const auto table = make_table(8000, /*zone_index=*/true);
  auto exact = warehouse::Query(table)
                   .where(warehouse::all_of({warehouse::between("value", 20.0, 80.0),
                                             warehouse::eq("user", "u3")}))
                   .group_by({"day"})
                   .aggregate(all_agg_kinds())
                   .threads(8)
                   .run();
  auto opaque = warehouse::Query(table)
                    .where([](const warehouse::Table& t, std::size_t r) {
                      const double v = t.col("value").as_double(r);
                      return v >= 20.0 && v <= 80.0 && t.col("user").as_string(r) == "u3";
                    })
                    .group_by({"day"})
                    .aggregate(all_agg_kinds())
                    .threads(8)
                    .run();
  expect_tables_identical(exact, opaque);
}

// Regression: the old engine rendered double group keys via
// std::to_string, which keeps 6 significant digits — 0.5 + 1e-9 and
// 0.5 + 2e-9 both rendered "0.500000" and silently merged. Packed keys
// carry the exact bit pattern.
TEST(ParallelQuery, DoubleKeysDistinguishBeyondSixDigits) {
  warehouse::Table t("t", {{"k", warehouse::ColType::kDouble},
                           {"v", warehouse::ColType::kDouble}});
  const double a = 0.5 + 1e-9;
  const double b = 0.5 + 2e-9;
  ASSERT_EQ(std::to_string(a), std::to_string(b));  // the old encoding collided
  for (int i = 0; i < 10; ++i) {
    t.append().set("k", i % 2 == 0 ? a : b).set("v", 1.0);
  }
  for (const std::size_t threads : kThreadCounts) {
    auto g = warehouse::Query(t)
                 .group_by({"k"})
                 .aggregate({{"", warehouse::AggKind::kCount, "", "n"}})
                 .threads(threads)
                 .run();
    ASSERT_EQ(g.rows(), 2u) << "distinct doubles merged into one group";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.col("k").as_double(0)),
              std::bit_cast<std::uint64_t>(a));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.col("k").as_double(1)),
              std::bit_cast<std::uint64_t>(b));
    EXPECT_EQ(g.col("n").as_int64(0), 5);
    EXPECT_EQ(g.col("n").as_int64(1), 5);
  }
}

TEST(ParallelQuery, SignedZeroKeysAreDistinctGroups) {
  warehouse::Table t("t", {{"k", warehouse::ColType::kDouble},
                           {"v", warehouse::ColType::kDouble}});
  for (int i = 0; i < 6; ++i) t.append().set("k", i % 2 == 0 ? 0.0 : -0.0).set("v", 1.0);
  auto g = warehouse::Query(t)
               .group_by({"k"})
               .aggregate({{"", warehouse::AggKind::kCount, "", "n"}})
               .run();
  ASSERT_EQ(g.rows(), 2u);
  EXPECT_FALSE(std::signbit(g.col("k").as_double(0)));
  EXPECT_TRUE(std::signbit(g.col("k").as_double(1)));
}

TEST(ParallelArchive, EncodeBytesIdenticalAcrossThreadCounts) {
  const auto table = make_table(6000, /*zone_index=*/false);
  const std::string reference = archive::encode_partition(table, 3);
  for (const std::size_t threads : kThreadCounts) {
    const std::string bytes =
        archive::encode_partition(table, 3, archive::kDefaultChunkRows, threads);
    ASSERT_EQ(reference, bytes) << threads << " threads";
  }
}

TEST(ParallelArchive, DecodeIdenticalAcrossThreadCounts) {
  const auto table = make_table(6000, /*zone_index=*/false);
  const std::string bytes = archive::encode_partition(table, 3);
  std::optional<warehouse::Table> reference;
  for (const std::size_t threads : kThreadCounts) {
    auto dp = archive::decode_partition(bytes, nullptr, threads);
    EXPECT_EQ(dp.day, 3);
    if (!reference) {
      expect_tables_identical(table, dp.table);  // round trip
      reference = std::move(dp.table);
      continue;
    }
    expect_tables_identical(*reference, dp.table);
  }
}

TEST(ParallelArchive, PrunedDecodeIdenticalAcrossThreadCounts) {
  // Time-ordered rows make the zone maps selective: a [0, 10] window on the
  // monotone column survives only in the leading chunks, so most of the
  // partition's blocks are never decompressed.
  warehouse::Table table("ordered", {{"time", warehouse::ColType::kDouble},
                                     {"user", warehouse::ColType::kString},
                                     {"value", warehouse::ColType::kDouble}});
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  for (std::size_t r = 0; r < 6000; ++r) {
    table.append()
        .set("time", static_cast<double>(r) * 0.01)
        .set("user", std::string("u") + std::to_string(r % 17))
        .set("value", frac(rng));
  }
  const std::string bytes =
      archive::encode_partition(table, 0, /*chunk_rows=*/256);
  const std::vector<warehouse::PredicateBounds> bounds = {
      {.column = "time", .lo = 0.0, .hi = 10.0, .equals = {}}};
  std::optional<warehouse::Table> reference;
  for (const std::size_t threads : kThreadCounts) {
    auto dp = archive::decode_partition(bytes, &bounds, threads);
    EXPECT_GT(dp.chunks_pruned, 0u);
    EXPECT_LT(dp.table.rows(), table.rows());
    if (!reference) {
      reference = std::move(dp.table);
      continue;
    }
    expect_tables_identical(*reference, dp.table);
  }
}

/// End-to-end: a real ingest appended to two archives with different thread
/// counts must produce byte-identical files (manifest included).
TEST(ParallelArchive, AppendFilesByteIdenticalAcrossThreadCounts) {
  const auto& run = sim_run();
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = run.span;
  cfg.cluster = run.spec.name;

  const fs::path base = fs::temp_directory_path() / "supremm_test_parallel_append";
  fs::remove_all(base);
  auto build = [&](std::size_t threads) {
    const fs::path dir = base / (std::string("t") + std::to_string(threads));
    archive::Archive ar(dir.string(), threads);
    ar.append(cfg, run.files, run.acct, run.lariat_records, run.catalogue,
              etl::project_science_map(*run.population), "ctx", run.start + run.span);
    return dir;
  };
  const fs::path d1 = build(1);
  const fs::path d8 = build(8);

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(d1)) {
    const fs::path other = d8 / entry.path().filename();
    ASSERT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(slurp(entry.path()), slurp(other)) << entry.path().filename();
    ++files;
  }
  EXPECT_GT(files, 2u);  // at least jobs + series + quality + manifest
  fs::remove_all(base);
}

/// Reader materialization with a worker pool must match the serial reader,
/// quarantine accounting included.
TEST(ParallelArchive, ReaderTablesIdenticalAcrossThreadCounts) {
  const fs::path dir = fs::temp_directory_path() / "supremm_test_parallel_reader";
  supremm::testing::build_archive(dir.string(), sim_run(), /*threads=*/2);

  std::optional<warehouse::Table> jobs_ref;
  for (const std::size_t threads : kThreadCounts) {
    archive::Reader reader(dir.string(), threads);
    auto jobs = reader.table("jobs");
    EXPECT_TRUE(reader.quarantined().empty());
    if (!jobs_ref) {
      jobs_ref = std::move(jobs);
      continue;
    }
    expect_tables_identical(*jobs_ref, jobs);
  }
  fs::remove_all(dir);
}

/// Collect one simulated day of a small Ranger on a fresh engine (agents
/// advance node counters, so each collection needs its own engine).
std::vector<taccstats::NodeOutput> collect_day(std::size_t threads) {
  const facility::ClusterSpec spec = facility::scaled(facility::ranger(), 0.008);
  const auto catalogue = facility::standard_catalogue();
  const auto population = facility::UserPopulation::generate(spec, catalogue, 31);
  facility::WorkloadConfig wl;
  wl.span = common::kDay;
  wl.seed = 31;
  auto execs = facility::Scheduler::run(
      spec, facility::generate_workload(spec, catalogue, population, wl), {});
  facility::FacilityEngine engine(spec, std::move(execs), {}, 0, wl.span, 31);
  return taccstats::run_all_agents(engine, taccstats::AgentConfig{}, threads);
}

/// Collection on the shared worker pool writes the same raw files, node by
/// node, at any thread count.
TEST(ParallelCollect, RunAllAgentsFilesIdenticalAcrossThreadCounts) {
  const auto serial = collect_day(1);
  const auto parallel = collect_day(4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GT(serial.size(), 1u);
  for (std::size_t n = 0; n < serial.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(serial[n].bytes, parallel[n].bytes);
    EXPECT_EQ(serial[n].samples, parallel[n].samples);
    ASSERT_EQ(serial[n].files.size(), parallel[n].files.size());
    ASSERT_FALSE(serial[n].files.empty());
    for (std::size_t f = 0; f < serial[n].files.size(); ++f) {
      EXPECT_EQ(serial[n].files[f].hostname, parallel[n].files[f].hostname);
      EXPECT_EQ(serial[n].files[f].day, parallel[n].files[f].day);
      EXPECT_EQ(serial[n].files[f].content, parallel[n].files[f].content);
    }
  }
}

}  // namespace
