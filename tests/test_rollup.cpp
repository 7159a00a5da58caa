// Rollup realm tests (DESIGN.md §16): subsumption boundary rules (the
// off-by-one-day trap at grain edges), fuzzed bit-identity of rollup-served
// results against the raw scan and the oracle across thread counts and SIMD
// tiers, metamorphic equality of incrementally maintained archive rollups
// against from-scratch builds, and service epoch invalidation across appends.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "archive/archive.h"
#include "archive/tables.h"
#include "common/simd.h"
#include "common/time.h"
#include "service/service.h"
#include "sim_fixture.h"
#include "testkit/genquery.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"
#include "warehouse/aggstate.h"
#include "warehouse/rollup.h"

namespace ar = supremm::archive;
namespace etl = supremm::etl;
namespace fs = std::filesystem;
namespace ru = supremm::warehouse::rollup;
namespace sc = supremm::common;
namespace simd = supremm::common::simd;
namespace sv = supremm::service;
namespace tk = supremm::testkit;
namespace wh = supremm::warehouse;
using supremm::testing::expect_tables_identical;
using supremm::testing::SimRun;
using supremm::testing::small_ranger_run;

namespace {

constexpr std::int64_t kDay = sc::kDay;
constexpr const char* kContext = "rollup-test";

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("supremm-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ar::AppendStats append_days(ar::Archive& a, const SimRun& run, int days) {
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = days * kDay;
  cfg.cluster = run.spec.name;
  return a.append(cfg, run.files, run.acct, run.lariat_records, run.catalogue,
                  etl::project_science_map(*run.population), kContext,
                  run.start + days * kDay);
}

/// The testkit spec re-expressed for the subsumption checker — the same
/// lossless mapping the service request path performs.
ru::QueryInput rollup_input(const tk::QuerySpec& spec) {
  ru::QueryInput in;
  if (spec.has_where) {
    for (const tk::PredTerm& t : spec.where) {
      ru::PredInput p;
      switch (t.op) {
        case tk::PredOp::kEq: p.op = ru::PredInput::Op::kEq; break;
        case tk::PredOp::kGe: p.op = ru::PredInput::Op::kGe; break;
        case tk::PredOp::kLe: p.op = ru::PredInput::Op::kLe; break;
        case tk::PredOp::kBetween: p.op = ru::PredInput::Op::kBetween; break;
      }
      p.column = t.column;
      p.value = t.value;
      p.lo = t.lo;
      p.hi = t.hi;
      in.where.push_back(std::move(p));
    }
  }
  in.group_by = spec.group_by;
  in.aggs = spec.aggs;
  return in;
}

ru::QueryInput simple_input(std::vector<ru::PredInput> where,
                            std::vector<std::string> group_by) {
  ru::QueryInput in;
  in.where = std::move(where);
  in.group_by = std::move(group_by);
  wh::AggSpec count;
  count.kind = wh::AggKind::kCount;
  in.aggs.push_back(count);
  return in;
}

ru::PredInput ge(std::string col, double lo) {
  ru::PredInput p;
  p.op = ru::PredInput::Op::kGe;
  p.column = std::move(col);
  p.lo = lo;
  return p;
}

ru::PredInput le(std::string col, double hi) {
  ru::PredInput p;
  p.op = ru::PredInput::Op::kLe;
  p.column = std::move(col);
  p.hi = hi;
  return p;
}

ru::PredInput between(std::string col, double lo, double hi) {
  ru::PredInput p;
  p.op = ru::PredInput::Op::kBetween;
  p.column = std::move(col);
  p.lo = lo;
  p.hi = hi;
  return p;
}

/// Shared fuzz population and its augmented reference table + rollups.
const std::vector<etl::JobSummary>& fuzz_jobs() {
  static const std::vector<etl::JobSummary> jobs =
      tk::make_rollup_jobs({.rows = 3000, .seed = 777});
  return jobs;
}

const wh::Table& fuzz_ref() {
  static const wh::Table t = [] {
    wh::Table jt = ar::jobs_table(fuzz_jobs());
    ru::augment_jobs_table(jt);
    jt.rebuild_zone_index(ar::kDefaultChunkRows);
    return jt;
  }();
  return t;
}

const ru::RollupSet& fuzz_rollups() {
  static const ru::RollupSet set = ru::build_from_table(fuzz_ref());
  return set;
}

std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> out = {simd::Tier::kScalar};
  if (simd::hardware_tier() >= simd::Tier::kSse2) out.push_back(simd::Tier::kSse2);
  if (simd::hardware_tier() >= simd::Tier::kAvx2) out.push_back(simd::Tier::kAvx2);
  return out;
}

struct TierGuard {
  TierGuard() = default;
  ~TierGuard() { simd::set_tier(simd::hardware_tier()); }
};

/// The manifest filename of the jobs partition for `day`, or empty.
std::string jobs_partition_filename(const ar::Archive& a, std::int64_t day) {
  for (const auto& p : a.manifest().partitions) {
    if (p.table == ar::kJobsTable && p.day == day) return p.filename;
  }
  return {};
}

/// Flips one mid-file byte so the partition's CRC check quarantines it.
void flip_byte(const fs::path& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(size / 2);
  char c = 0;
  f.get(c);
  f.seekp(size / 2);
  f.put(static_cast<char>(c ^ 0x5a));
}

/// Service config for the rollup tests. `rollups` is always assigned
/// explicitly, so the SUPREMM_ROLLUP=off ctest leg (which only changes the
/// default) still exercises the serving paths.
sv::ServiceConfig rollup_config(bool rollups, int cache_entries = 0) {
  sv::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = cache_entries;
  cfg.rollups = rollups;
  return cfg;
}

// ---------------------------------------------------------------------------
// Calendar math (DST-free by construction: a day is exactly 86400 simulated
// seconds and the grains nest without exception days).

static_assert(wh::kDaysPerWeek == 7);
static_assert(wh::kDaysPerMonth % wh::kDaysPerWeek == 0);
static_assert(wh::kDaysPerQuarter % wh::kDaysPerMonth == 0);

TEST(RollupCalendar, EndDayIndexIsHalfOpenOnMidnight) {
  // Day D covers end in (D*86400, (D+1)*86400]: midnight itself closes the
  // previous day, one second past opens the next.
  EXPECT_EQ(wh::end_day_index(1), 0);
  EXPECT_EQ(wh::end_day_index(kDay), 0);
  EXPECT_EQ(wh::end_day_index(kDay + 1), 1);
  EXPECT_EQ(wh::end_day_index(2 * kDay), 1);
  EXPECT_EQ(wh::end_day_index(0), -1);
  EXPECT_EQ(wh::end_day_index(-kDay + 1), -1);
  EXPECT_EQ(wh::floor_div(-1, 7), -1);
  EXPECT_EQ(wh::floor_div(-7, 7), -1);
  EXPECT_EQ(wh::floor_div(-8, 7), -2);
}

// ---------------------------------------------------------------------------
// Subsumption rules, especially the half-open `end` bounds at bucket edges.

TEST(RollupSubsume, AlignedEndBoundsAreServable) {
  // end >= d*86400 + 1 selects exactly days >= d.
  auto plan = ru::subsume(simple_input({ge("end", 5.0 * kDay + 1.0)}, {"user"}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->has_lo);
  EXPECT_EQ(plan->d_lo, 5);
  EXPECT_FALSE(plan->has_hi);

  // end <= d*86400 selects exactly days <= d-1.
  plan = ru::subsume(simple_input({le("end", 9.0 * kDay)}, {"user"}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->has_hi);
  EXPECT_EQ(plan->d_hi, 8);

  // Fractional bounds that round to the aligned instants are fine too.
  plan = ru::subsume(
      simple_input({between("end", 2.0 * kDay + 0.5, 6.0 * kDay + 0.5)}, {}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->d_lo, 2);
  EXPECT_EQ(plan->d_hi, 5);
}

TEST(RollupSubsume, MisalignedEndBoundsAreRejected) {
  // A lower bound two seconds past midnight cuts day 5 in half: no set of
  // whole cells can serve it.
  EXPECT_FALSE(ru::subsume(simple_input({ge("end", 5.0 * kDay + 2.0)}, {"user"})));
  // An upper bound one second past midnight includes one instant of day 9.
  EXPECT_FALSE(ru::subsume(simple_input({le("end", 9.0 * kDay + 1.0)}, {"user"})));
  // One second *before* midnight excludes the midnight-ending jobs of day 8.
  EXPECT_FALSE(ru::subsume(simple_input({le("end", 9.0 * kDay - 1.0)}, {"user"})));
  // NaN and beyond-int64 bounds must be rejected before integer conversion.
  EXPECT_FALSE(ru::subsume(
      simple_input({ge("end", std::numeric_limits<double>::quiet_NaN())}, {})));
  EXPECT_FALSE(ru::subsume(simple_input({ge("end", 5e18)}, {})));
  EXPECT_FALSE(ru::subsume(simple_input({le("end", -5e18)}, {})));
}

TEST(RollupSubsume, LevelSelectionRespectsGrainAlignment) {
  // Week-grouped, week-aligned range: served from the week table.
  auto plan = ru::subsume(simple_input(
      {between("end", 7.0 * kDay + 1.0, 28.0 * kDay)}, {"week"}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(ru::levels()[plan->level].grain, 7);

  // Week-grouped but the range straddles a week boundary (days 8..27): the
  // plan must drop to the day table — serving whole week buckets would
  // over-count the edge days.
  plan = ru::subsume(simple_input(
      {between("end", 8.0 * kDay + 1.0, 28.0 * kDay)}, {"week"}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(ru::levels()[plan->level].grain, 1);

  // Quarter-aligned everything: coarsest level wins.
  plan = ru::subsume(simple_input({ge("end", 84.0 * kDay + 1.0)}, {"quarter"}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(ru::levels()[plan->level].grain, 84);

  // No time predicate and no bucket keys: full range, coarsest level.
  plan = ru::subsume(simple_input({}, {"user", "cluster"}));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(ru::levels()[plan->level].grain, 84);
  EXPECT_FALSE(plan->has_lo);
  EXPECT_FALSE(plan->has_hi);
}

TEST(RollupSubsume, IneligibleShapesFallBack) {
  // Non-subkey dimension, metric-range predicate, non-metric agg source,
  // and wmean with a weight other than node_hours all reject.
  EXPECT_FALSE(ru::subsume(simple_input({}, {"science"})));
  EXPECT_FALSE(ru::subsume(simple_input({ge("node_hours", 1.0)}, {"user"})));
  ru::QueryInput in = simple_input({}, {"user"});
  in.aggs[0].kind = wh::AggKind::kSum;
  in.aggs[0].column = "submit";
  EXPECT_FALSE(ru::subsume(in));
  in.aggs[0].kind = wh::AggKind::kWeightedMean;
  in.aggs[0].column = "cpu_idle";
  in.aggs[0].weight = "mem_used_gb";
  EXPECT_FALSE(ru::subsume(in));
  in.aggs[0].weight = "node_hours";
  EXPECT_TRUE(ru::subsume(in).has_value());
  // Five group keys (or duplicates) belong to the raw path, which owns the
  // resulting error.
  EXPECT_FALSE(ru::subsume(
      simple_input({}, {"user", "app", "cluster", "day", "week"})));
  EXPECT_FALSE(ru::subsume(simple_input({}, {"user", "user"})));
}

// Timestamps on, one past, and one short of the day-20 midnight (the
// population salts all three instants). Day D holds end ∈ (D·86400,
// (D+1)·86400], so exactly one cut per direction is bucket-aligned:
// ge D·86400+1 and le D·86400. Every accepted plan must serve
// bit-identically to the raw scan; every straddling cut must be rejected.
TEST(RollupSubsume, BoundaryTimestampsServeExactly) {
  for (const double bound : {20.0 * kDay + 1.0, 20.0 * kDay, 21.0 * kDay}) {
    for (const bool lower : {true, false}) {
      tk::QuerySpec spec;
      spec.has_where = true;
      tk::PredTerm t;
      t.column = "end";
      t.op = lower ? tk::PredOp::kGe : tk::PredOp::kLe;
      t.lo = bound;
      t.hi = bound;
      spec.where.push_back(t);
      spec.group_by = {"user", "day"};
      wh::AggSpec count;
      count.kind = wh::AggKind::kCount;
      wh::AggSpec sum;
      sum.kind = wh::AggKind::kSum;
      sum.column = "node_hours";
      spec.aggs = {count, sum};
      const std::int64_t b = static_cast<std::int64_t>(bound);
      const bool servable = lower ? (b - 1) % kDay == 0 : b % kDay == 0;
      const auto plan = ru::subsume(rollup_input(spec));
      ASSERT_EQ(plan.has_value(), servable)
          << "bound=" << bound << " lower=" << lower;
      if (!plan) continue;
      wh::QueryStats stats;
      const wh::Table served = ru::serve(fuzz_rollups(), *plan, &stats);
      const tk::QueryRun raw = tk::run_engine(fuzz_ref(), spec);
      expect_tables_identical(served, raw.table);
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzed differential: rollup-served == raw scan == oracle, bit-identical.

TEST(RollupFuzz, FiveHundredQueriesAgainstOracleAndServe) {
  constexpr std::uint64_t kSeed = 20130313;
  constexpr std::size_t kQueries = 510;
  std::size_t subsumed = 0, fallback = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    tk::QuerySpec spec = tk::make_rollup_query_spec(kSeed, q);
    for (const std::size_t threads : tk::kDiffThreadCounts) {
      spec.threads = threads;
      const auto diff = tk::differential_check(fuzz_ref(), spec, threads);
      ASSERT_FALSE(diff.has_value())
          << "query " << q << " threads " << threads << ": " << *diff;
    }
    spec.threads = 1;
    SCOPED_TRACE("query " + std::to_string(q) + ": " +
                 tk::to_request_text(spec, "jobs"));
    if (const auto plan = ru::subsume(rollup_input(spec))) {
      ++subsumed;
      wh::QueryStats stats;
      const wh::Table served = ru::serve(fuzz_rollups(), *plan, &stats);
      const tk::QueryRun raw = tk::run_engine(fuzz_ref(), spec);
      expect_tables_identical(served, raw.table);
      // Rollup stats use the documented cell accounting: level rows
      // examined, except a dim literal missing from the level dictionary
      // short-circuits selection and reports zero.
      bool dict_miss = false;
      for (const auto& [col, val] : plan->dim_eq) {
        if (!fuzz_rollups().level(plan->level).col(col).find_code(val)) {
          dict_miss = true;
          break;
        }
      }
      EXPECT_EQ(stats.rows_scanned,
                dict_miss ? 0u : fuzz_rollups().level(plan->level).rows());
      EXPECT_EQ(stats.chunks_total, 0u);
      EXPECT_EQ(stats.chunks_pruned, 0u);
    } else {
      ++fallback;
    }
  }
  // The grammar is steered toward the decision boundary: both outcomes must
  // be exercised heavily.
  EXPECT_GE(subsumed, kQueries / 4);
  EXPECT_GE(fallback, kQueries / 8);
}

TEST(RollupFuzz, SimdTiersBitIdentical) {
  TierGuard guard;
  constexpr std::uint64_t kSeed = 424242;
  for (std::size_t q = 0; q < 60; ++q) {
    const tk::QuerySpec spec = tk::make_rollup_query_spec(kSeed, q);
    const auto plan = ru::subsume(rollup_input(spec));
    std::optional<wh::Table> baseline;
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier(tier);
      const tk::QueryRun raw = tk::run_engine(fuzz_ref(), spec);
      if (!baseline) {
        baseline.emplace(raw.table);
      } else {
        expect_tables_identical(*baseline, raw.table);
      }
      if (plan) {
        const wh::Table served = ru::serve(fuzz_rollups(), *plan, nullptr);
        expect_tables_identical(*baseline, served);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Service integration: rollups-off differential leg, hit accounting, the
// SUPREMM_ROLLUP default, epoch invalidation across appends.

TEST(RollupService, ServedAndForcedOffLegsAreBitIdentical) {
  // No cache: every submit exercises the executor.
  sv::Service on(rollup_config(true)), off(rollup_config(false));
  on.publish_jobs(fuzz_jobs());
  off.publish_jobs(fuzz_jobs());
  auto son = on.session("on"), soff = off.session("off");

  constexpr std::uint64_t kSeed = 20130313;
  std::size_t served = 0;
  for (std::size_t q = 0; q < 200; ++q) {
    tk::QuerySpec spec;
    const std::string text = tk::make_rollup_request_text(kSeed, q, &spec);
    const sv::ResponsePtr ron = son.run(text);
    const sv::ResponsePtr roff = soff.run(text);
    ASSERT_EQ(ron->status, sv::Status::kOk) << text << ": " << ron->error;
    ASSERT_EQ(roff->status, sv::Status::kOk) << text << ": " << roff->error;
    expect_tables_identical(*ron->table, *roff->table);
    // Both legs also match the engine run over the augmented reference.
    const tk::QueryRun raw = tk::run_engine(fuzz_ref(), spec);
    expect_tables_identical(*ron->table, raw.table);
    if (ru::subsume(rollup_input(spec))) ++served;
  }
  const sv::ServiceMetrics mon = on.metrics();
  EXPECT_EQ(mon.rollup_hits, served);
  EXPECT_EQ(mon.rollup_hits + mon.rollup_misses, 200u);
  EXPECT_GE(mon.rollup_hits, 50u);
  EXPECT_GT(mon.rollup_cells, 0u);
  EXPECT_TRUE(mon.rollups_enabled);
  // The rollups=false service never consulted the checker.
  const sv::ServiceMetrics moff = off.metrics();
  EXPECT_EQ(moff.rollup_hits, 0u);
  EXPECT_FALSE(moff.rollups_enabled);
  const std::string json = on.metrics_json();
  EXPECT_NE(json.find("\"rollup\":{\"enabled\":true"), std::string::npos);
}

TEST(RollupService, DisabledConfigSkipsBuildAndServing) {
  sv::Service svc(rollup_config(false));
  svc.publish_jobs(fuzz_jobs());
  auto s = svc.session("c");
  const sv::ResponsePtr r = s.run("query jobs group user agg count()");
  ASSERT_EQ(r->status, sv::Status::kOk) << r->error;
  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_FALSE(m.rollups_enabled);
  EXPECT_EQ(m.rollup_hits, 0u);
  EXPECT_EQ(m.rollup_cells, 0u);
}

TEST(RollupService, ExplicitConfigOverridesEnvironmentDefault) {
  // SUPREMM_ROLLUP only sets the default of ServiceConfig::rollups: under
  // the SUPREMM_ROLLUP=off ctest leg a service configured with
  // rollups = true still builds and serves its rollups, bit-identical to
  // the raw scan.
  const char* env = std::getenv("SUPREMM_ROLLUP");
  const bool env_off =
      env != nullptr && (std::string_view(env) == "off" || std::string_view(env) == "0");
  EXPECT_EQ(sv::ServiceConfig{}.rollups, !env_off);
  EXPECT_EQ(ru::default_enabled(), !env_off);

  sv::Service svc(rollup_config(true));
  svc.publish_jobs(fuzz_jobs());
  auto s = svc.session("explicit");
  constexpr std::uint64_t kSeed = 424242;
  for (std::size_t q = 0; q < 40; ++q) {
    tk::QuerySpec spec;
    const std::string text = tk::make_rollup_request_text(kSeed, q, &spec);
    const sv::ResponsePtr r = s.run(text);
    ASSERT_EQ(r->status, sv::Status::kOk) << text << ": " << r->error;
    expect_tables_identical(*r->table, tk::run_engine(fuzz_ref(), spec).table);
  }
  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_GE(m.rollup_hits, 1u);
  EXPECT_TRUE(m.rollups_enabled);
}

TEST(RollupService, AppendAdvancesEpochAndInvalidatesRollupCache) {
  const SimRun& run = small_ranger_run();
  const std::string dir = scratch_dir("rollup-epoch");
  ar::Archive a(dir);
  append_days(a, run, 4);

  sv::Service svc(rollup_config(true, /*cache_entries=*/16));
  svc.bind_archive(a);
  auto s = svc.session("dash");

  // A subsumable dashboard query, cached under the pre-append epoch.
  const std::string text = "query jobs group user,day agg count(),sum(node_hours)";
  const sv::ResponsePtr r1 = s.run(text);
  ASSERT_EQ(r1->status, sv::Status::kOk) << r1->error;
  EXPECT_FALSE(r1->cache_hit);
  const sv::ResponsePtr r2 = s.run(text);
  ASSERT_EQ(r2->status, sv::Status::kOk);
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r2->epoch, r1->epoch);
  expect_tables_identical(*r1->table, *r2->table);
  EXPECT_GE(svc.metrics().rollup_hits, 1u);

  // Maintenance advances the watermark; the epoch bump must retire every
  // pre-append cache entry — a stale rollup answer can never be served.
  append_days(a, run, 8);
  const sv::ResponsePtr r3 = s.run(text);
  ASSERT_EQ(r3->status, sv::Status::kOk) << r3->error;
  EXPECT_FALSE(r3->cache_hit);
  EXPECT_GT(r3->epoch, r1->epoch);
  EXPECT_GT(r3->watermark, r1->watermark);
  // And the fresh answer reflects the appended days: more jobs counted.
  ASSERT_GT(r3->table->rows(), 0u);
  EXPECT_GT(r3->table->rows(), r1->table->rows());
}

// ---------------------------------------------------------------------------
// Metamorphic: incrementally maintained archive rollups == from-scratch.

TEST(RollupArchive, IncrementalAppendsEqualScratchBuild) {
  const SimRun& run = small_ranger_run();
  const std::string inc_dir = scratch_dir("rollup-inc");
  const std::string one_dir = scratch_dir("rollup-one");

  ar::Archive inc(inc_dir);
  const ar::AppendStats s1 = append_days(inc, run, 2);
  EXPECT_GT(s1.rollup_partitions_written, 0u);
  EXPECT_EQ(s1.rollup_days_read_back, 0u);  // nothing retained yet
  const ar::AppendStats s2 = append_days(inc, run, 5);
  const ar::AppendStats s3 = append_days(inc, run, 8);
  // Incremental maintenance re-reads at most the current quarter of
  // retained jobs partitions, never the whole archive.
  EXPECT_LE(s2.rollup_days_read_back, 84u);
  EXPECT_GT(s3.rollup_partitions_written, 0u);

  ar::Archive one(one_dir);
  append_days(one, run, 8);

  const auto from_inc = inc.load_rollups();
  const auto from_one = one.load_rollups();
  ASSERT_TRUE(from_inc.has_value());
  ASSERT_TRUE(from_one.has_value());
  ASSERT_GT(from_inc->cells(), 0u);

  // Leg three: a from-scratch build over the loaded jobs table.
  wh::Table jobs = ar::jobs_table(inc.load().result.jobs);
  ru::augment_jobs_table(jobs);
  const ru::RollupSet rebuilt = ru::build_from_table(jobs);

  for (std::size_t li = 0; li < ru::levels().size(); ++li) {
    expect_tables_identical(from_inc->level(li), from_one->level(li));
    expect_tables_identical(from_inc->level(li), rebuilt.level(li));
  }
}

TEST(RollupArchive, MaintainedCellsAreUsedWithoutRebuild) {
  const SimRun& run = small_ranger_run();
  const std::string dir = scratch_dir("rollup-maintained");
  ar::Archive a(dir);
  append_days(a, run, 2);
  ASSERT_TRUE(a.load_rollups().has_value());

  sv::Service svc(rollup_config(true));
  svc.bind_archive(a);
  EXPECT_EQ(svc.metrics().rollup_rebuilds, 0u);  // maintained cells were used
  EXPECT_GT(svc.metrics().rollup_cells, 0u);
}

TEST(RollupArchive, MissingRollupPartitionsFallBackToRebuild) {
  // Strip the rollup partition files: load_rollups must refuse the partial
  // state (nullopt) and a binding service rebuilds its cells from the jobs
  // table — serving identical answers either way.
  const SimRun& run = small_ranger_run();
  const std::string dir = scratch_dir("rollup-legacy");
  {
    ar::Archive a(dir);
    append_days(a, run, 2);
  }
  std::size_t removed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("rollup_", 0) == 0) {
      fs::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_GT(removed, 0u);

  ar::Archive a(dir);
  EXPECT_FALSE(a.load_rollups().has_value());

  sv::Service svc(rollup_config(true));
  svc.bind_archive(a);  // first bind publishes despite the quarantines
  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.rollup_rebuilds, 1u);
  EXPECT_GT(m.rollup_cells, 0u);

  auto s = svc.session("c");
  const sv::ResponsePtr r = s.run("query jobs group user agg count()");
  ASSERT_EQ(r->status, sv::Status::kOk) << r->error;
  EXPECT_GE(svc.metrics().rollup_hits, 1u);
}

// ---------------------------------------------------------------------------
// Consistency at the edges: quarantined binds, unsorted publishes, config-off
// parity, degraded maintenance, and the dictionary-miss stats short-circuit.

TEST(RollupServe, DictionaryMissShortCircuitsWithZeroScanned) {
  ru::QueryInput in = simple_input({}, {"user"});
  ru::PredInput p;
  p.op = ru::PredInput::Op::kEq;
  p.column = "user";
  p.value = "no-such-user";
  in.where.push_back(p);
  const auto plan = ru::subsume(in);
  ASSERT_TRUE(plan.has_value());
  wh::QueryStats stats;
  const wh::Table served = ru::serve(fuzz_rollups(), *plan, &stats);
  EXPECT_EQ(served.rows(), 0u);
  EXPECT_EQ(stats.rows_scanned, 0u);  // zero cells were examined on the miss
  EXPECT_EQ(stats.rows_matched, 0u);

  // The shard reader short-circuits the same way.
  const wh::partial::Partial part = ru::serve_partial(fuzz_rollups(), *plan);
  EXPECT_TRUE(part.tuples.empty());
  EXPECT_EQ(part.stats.rows_scanned, 0u);
  EXPECT_EQ(part.stats.rows_matched, 0u);

  // The raw scan agrees on the (empty) answer.
  tk::QuerySpec spec;
  spec.has_where = true;
  tk::PredTerm t;
  t.column = "user";
  t.op = tk::PredOp::kEq;
  t.value = "no-such-user";
  spec.where.push_back(t);
  spec.group_by = {"user"};
  wh::AggSpec count;
  count.kind = wh::AggKind::kCount;
  spec.aggs = {count};
  const tk::QueryRun raw = tk::run_engine(fuzz_ref(), spec);
  expect_tables_identical(served, raw.table);
}

TEST(RollupService, UnsortedPublishServesBitIdentical) {
  // publish_jobs canonicalizes to ascending-id order (the order
  // Archive::load restores): a reversed publish must serve rollup and raw
  // answers bit-identical to each other and to the reference population.
  const std::vector<etl::JobSummary> reversed(fuzz_jobs().rbegin(), fuzz_jobs().rend());
  sv::Service served(rollup_config(true)), scanned(rollup_config(false));
  served.publish_jobs(reversed);
  scanned.publish_jobs(reversed);
  auto s_on = served.session("rev"), s_off = scanned.session("rev");
  constexpr std::uint64_t kSeed = 20130313;
  for (std::size_t q = 0; q < 60; ++q) {
    tk::QuerySpec spec;
    const std::string text = tk::make_rollup_request_text(kSeed, q, &spec);
    const sv::ResponsePtr on = s_on.run(text);
    const sv::ResponsePtr off = s_off.run(text);
    ASSERT_EQ(on->status, sv::Status::kOk) << text << ": " << on->error;
    ASSERT_EQ(off->status, sv::Status::kOk) << text << ": " << off->error;
    expect_tables_identical(*on->table, *off->table);
    const tk::QueryRun raw = tk::run_engine(fuzz_ref(), spec);
    expect_tables_identical(*on->table, raw.table);
  }
}

TEST(RollupService, DisabledConfigKeepsQuerySurfaceAndResults) {
  // rollups=false skips the build and the serving path but must not change
  // the query surface: bucket columns stay queryable and grouped
  // aggregation runs the same time-partitioned contract, so every answer
  // matches an enabled service bit for bit.
  sv::Service on(rollup_config(true)), off(rollup_config(false));
  on.publish_jobs(fuzz_jobs());
  off.publish_jobs(fuzz_jobs());
  auto son = on.session("on"), soff = off.session("off");
  constexpr std::uint64_t kSeed = 97531;
  for (std::size_t q = 0; q < 60; ++q) {
    const std::string text = tk::make_rollup_request_text(kSeed, q);
    const sv::ResponsePtr ron = son.run(text);
    const sv::ResponsePtr roff = soff.run(text);
    ASSERT_EQ(ron->status, sv::Status::kOk) << text << ": " << ron->error;
    ASSERT_EQ(roff->status, sv::Status::kOk) << text << ": " << roff->error;
    expect_tables_identical(*ron->table, *roff->table);
  }
  // The bucket columns exist on the rollups=false surface too.
  const sv::ResponsePtr grouped = soff.run("query jobs group week agg count()");
  ASSERT_EQ(grouped->status, sv::Status::kOk) << grouped->error;
  EXPECT_EQ(off.metrics().rollup_hits, 0u);
  EXPECT_EQ(off.metrics().rollup_cells, 0u);
}

TEST(RollupService, FirstBindWithQuarantineRebuildsFromLoadedTable) {
  const SimRun& run = small_ranger_run();
  const std::string dir = scratch_dir("rollup-quarantine-bind");
  {
    ar::Archive a(dir);
    append_days(a, run, 4);
    const std::string file = jobs_partition_filename(a, 1);
    ASSERT_FALSE(file.empty());
    flip_byte(fs::path(dir) / file);
  }

  // The rollup partitions are intact, but the jobs table the first bind
  // publishes is partial (day 1 quarantined): the maintained cells — built
  // from the full pre-corruption data — must be rejected in favour of a
  // rebuild over what actually loaded, or served and scanned answers
  // diverge on the same snapshot.
  ar::Archive a(dir);
  ASSERT_TRUE(a.load_rollups().has_value());  // cells themselves are healthy
  ASSERT_FALSE(a.load().quarantined.empty());

  sv::Service svc(rollup_config(true)), raw(rollup_config(false));
  svc.bind_archive(a);  // first bind publishes the partial view
  raw.bind_archive(a);
  EXPECT_EQ(svc.metrics().rollup_rebuilds, 1u);

  const std::string text = "query jobs group user,day agg count(),sum(node_hours)";
  const sv::ResponsePtr served = svc.session("partial").run(text);
  const sv::ResponsePtr scanned = raw.session("partial").run(text);
  ASSERT_EQ(served->status, sv::Status::kOk) << served->error;
  ASSERT_EQ(scanned->status, sv::Status::kOk) << scanned->error;
  EXPECT_GE(svc.metrics().rollup_hits, 1u);
  expect_tables_identical(*served->table, *scanned->table);
}

TEST(RollupArchive, RetainedPartitionBitrotDegradesThenRecovers) {
  const SimRun& run = small_ranger_run();
  const std::string dir = scratch_dir("rollup-degrade");
  ar::Archive a(dir);
  append_days(a, run, 2);
  const std::string file = jobs_partition_filename(a, 0);
  ASSERT_FALSE(file.empty());
  const fs::path path = fs::path(dir) / file;
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    pristine.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  flip_byte(path);

  // Latent bitrot in a retained partition degrades maintenance instead of
  // failing the append: the data partitions still commit, but no rollup
  // partitions do, so a partial cell set can never serve.
  const ar::AppendStats degraded = append_days(a, run, 5);
  EXPECT_TRUE(degraded.rollup_maintenance_skipped);
  EXPECT_EQ(degraded.rollup_partitions_written, 0u);
  EXPECT_EQ(degraded.rollup_cells_written, 0u);
  EXPECT_GT(degraded.partitions_written, 0u);
  EXPECT_FALSE(a.load_rollups().has_value());

  // Restore the file byte-for-byte (the manifest still references it): the
  // next append can read the full history again and rebuilds coverage from
  // scratch, identical to a from-scratch build over the loaded jobs.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
  }
  const ar::AppendStats recovered = append_days(a, run, 8);
  EXPECT_FALSE(recovered.rollup_maintenance_skipped);
  EXPECT_GT(recovered.rollup_partitions_written, 0u);
  const auto maintained = a.load_rollups();
  ASSERT_TRUE(maintained.has_value());
  wh::Table jobs = ar::jobs_table(a.load().result.jobs);
  ru::augment_jobs_table(jobs);
  const ru::RollupSet rebuilt = ru::build_from_table(jobs);
  for (std::size_t li = 0; li < ru::levels().size(); ++li) {
    expect_tables_identical(maintained->level(li), rebuilt.level(li));
  }
}

}  // namespace
