// Unit tests for the columnar warehouse: typed columns, row building,
// filtering and grouped aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "warehouse/query.h"
#include "warehouse/table.h"

namespace wh = supremm::warehouse;

namespace {

wh::Table jobs_table() {
  wh::Table t("jobs", {{"user", wh::ColType::kString},
                       {"app", wh::ColType::kString},
                       {"node_hours", wh::ColType::kDouble},
                       {"cpu_idle", wh::ColType::kDouble},
                       {"nodes", wh::ColType::kInt64}});
  const struct {
    const char* user;
    const char* app;
    double nh;
    double idle;
    std::int64_t nodes;
  } rows[] = {
      {"alice", "NAMD", 100, 0.05, 16}, {"alice", "NAMD", 50, 0.10, 8},
      {"bob", "AMBER", 200, 0.30, 4},   {"bob", "NAMD", 25, 0.08, 2},
      {"carol", "WRF", 400, 0.15, 32},
  };
  for (const auto& r : rows) {
    t.append()
        .set("user", r.user)
        .set("app", r.app)
        .set("node_hours", r.nh)
        .set("cpu_idle", r.idle)
        .set("nodes", r.nodes);
  }
  return t;
}

}  // namespace

// --- column / table ---------------------------------------------------------

TEST(Column, TypeEnforcement) {
  wh::Column c("x", wh::ColType::kDouble);
  c.push_double(1.5);
  EXPECT_THROW(c.push_int64(1), supremm::InvalidArgument);
  EXPECT_THROW(c.push_string("a"), supremm::InvalidArgument);
  EXPECT_DOUBLE_EQ(c.as_double(0), 1.5);
  EXPECT_THROW((void)c.as_int64(0), supremm::InvalidArgument);
}

TEST(Column, StringDictionaryEncoding) {
  wh::Column c("s", wh::ColType::kString);
  c.push_string("aa");
  c.push_string("bb");
  c.push_string("aa");
  EXPECT_EQ(c.code(0), c.code(2));
  EXPECT_NE(c.code(0), c.code(1));
  EXPECT_EQ(c.as_string(2), "aa");
  EXPECT_EQ(c.decode(c.code(1)), "bb");
}

TEST(Column, SetDictDuplicateThrowsAndLeavesColumnEmpty) {
  wh::Column c("s", wh::ColType::kString);
  EXPECT_THROW(c.set_dict({"a", "b", "a"}), supremm::InvalidArgument);
  EXPECT_TRUE(c.dict().empty());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.find_code("a").has_value());
  // Nothing of the refused dictionary survives: one code per value.
  c.push_string("b");
  c.push_string("a");
  c.push_string("b");
  EXPECT_EQ(c.dict().size(), 2u);
  EXPECT_EQ(c.code(0), 0);
  EXPECT_EQ(c.code(1), 1);
  EXPECT_EQ(c.code(2), 0);
  // A good dictionary still installs on a fresh column after a refusal.
  wh::Column d("d", wh::ColType::kString);
  EXPECT_THROW(d.set_dict({"x", "x"}), supremm::InvalidArgument);
  d.set_dict({"x", "y"});
  EXPECT_EQ(d.find_code("y"), 1);
}

TEST(Column, FindCodeHitsAndMisses) {
  wh::Column empty("e", wh::ColType::kString);
  EXPECT_FALSE(empty.find_code("").has_value());
  EXPECT_FALSE(empty.find_code("a").has_value());

  const std::string nul("a\0b", 3);
  wh::Column c("s", wh::ColType::kString);
  c.push_string("a");
  c.push_string("");
  c.push_string(nul);
  EXPECT_EQ(c.find_code("a"), 0);
  EXPECT_EQ(c.find_code(""), 1);
  EXPECT_EQ(c.find_code(nul), 2);
  EXPECT_FALSE(c.find_code(std::string("a\0c", 3)).has_value());
  EXPECT_FALSE(c.find_code(std::string("a\0", 2)).has_value());
  EXPECT_FALSE(c.find_code("b").has_value());
  EXPECT_FALSE(c.find_code("ab").has_value());
  EXPECT_EQ(c.as_string(2), nul);

  wh::Column d("d", wh::ColType::kString);
  d.set_dict({"", nul, "z"});
  EXPECT_EQ(d.find_code(""), 0);
  EXPECT_EQ(d.find_code(nul), 1);
  EXPECT_FALSE(d.find_code("a").has_value());
}

TEST(Column, FirstSeenCodesStableThroughIndexGrowth) {
  constexpr int kValues = 100000;
  const auto value = [](int i) { return supremm::common::strprintf("v%d", i * 7919 % 1000003); };
  wh::Column c("s", wh::ColType::kString);
  for (int i = 0; i < kValues; ++i) {
    c.push_string(value(i));
    c.push_string(value(i / 2));  // a hit on an earlier value every row
  }
  ASSERT_EQ(c.dict().size(), static_cast<std::size_t>(kValues));
  for (int i = 0; i < kValues; ++i) {
    ASSERT_EQ(c.dict()[static_cast<std::size_t>(i)], value(i));
    ASSERT_EQ(c.code(2 * static_cast<std::size_t>(i)), i);
    ASSERT_EQ(c.code(2 * static_cast<std::size_t>(i) + 1), i / 2);
    ASSERT_EQ(c.find_code(value(i)), i);
  }
  EXPECT_FALSE(c.find_code("v-1").has_value());
}

TEST(Column, PushStringAfterSetDict) {
  wh::Column c("s", wh::ColType::kString);
  std::vector<std::string> dict;
  for (int i = 0; i < 50; ++i) dict.push_back(supremm::common::strprintf("d%d", i));
  c.set_dict(dict);
  c.push_string("d7");   // existing entry: its installed code
  c.push_string("new");  // new entry: next code
  c.push_string("d0");
  c.push_string("new");
  EXPECT_EQ(c.code(0), 7);
  EXPECT_EQ(c.code(1), 50);
  EXPECT_EQ(c.code(2), 0);
  EXPECT_EQ(c.code(3), 50);
  ASSERT_EQ(c.dict().size(), 51u);
  EXPECT_EQ(c.dict()[50], "new");
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c.find_code(dict[static_cast<std::size_t>(i)]), i);
}

TEST(Column, IntAsDoubleCoercion) {
  wh::Column c("i", wh::ColType::kInt64);
  c.push_int64(7);
  EXPECT_DOUBLE_EQ(c.as_double(0), 7.0);
}

TEST(Table, SchemaAndRows) {
  const auto t = jobs_table();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_TRUE(t.has_col("user"));
  EXPECT_FALSE(t.has_col("nope"));
  EXPECT_THROW((void)t.col("nope"), supremm::NotFoundError);
  EXPECT_EQ(t.col("user").as_string(0), "alice");
  EXPECT_EQ(t.col("nodes").as_int64(4), 32);
}

TEST(Table, RowBuilderRequiresAllColumns) {
  wh::Table t("t", {{"a", wh::ColType::kDouble}, {"b", wh::ColType::kDouble}});
  EXPECT_THROW({ t.append().set("a", 1.0); }, supremm::InvalidArgument);
}

TEST(Table, RejectsEmptySchema) {
  EXPECT_THROW(wh::Table("t", {}), supremm::InvalidArgument);
}

TEST(Table, SelectPredicate) {
  const auto t = jobs_table();
  const auto rows =
      t.select([&](std::size_t r) { return t.col("cpu_idle").as_double(r) > 0.1; });
  EXPECT_EQ(rows.size(), 2u);  // bob/AMBER and carol/WRF
}

// --- query -------------------------------------------------------------------

TEST(Query, GroupBySum) {
  const auto t = jobs_table();
  const auto g = wh::Query(t)
                     .group_by({"user"})
                     .aggregate({{"node_hours", wh::AggKind::kSum, "", ""}})
                     .run();
  EXPECT_EQ(g.rows(), 3u);
  // First-seen order: alice, bob, carol.
  EXPECT_EQ(g.col("user").as_string(0), "alice");
  EXPECT_DOUBLE_EQ(g.col("node_hours_sum").as_double(0), 150.0);
  EXPECT_DOUBLE_EQ(g.col("node_hours_sum").as_double(1), 225.0);
  EXPECT_DOUBLE_EQ(g.col("node_hours_sum").as_double(2), 400.0);
}

TEST(Query, WeightedMean) {
  const auto t = jobs_table();
  const auto g =
      wh::Query(t)
          .group_by({"user"})
          .aggregate({{"cpu_idle", wh::AggKind::kWeightedMean, "node_hours", "idle"}})
          .run();
  // alice: (0.05*100 + 0.10*50)/150.
  EXPECT_NEAR(g.col("idle").as_double(0), 10.0 / 150.0, 1e-12);
}

TEST(Query, CountMaxMin) {
  const auto t = jobs_table();
  const auto g = wh::Query(t)
                     .group_by({"app"})
                     .aggregate({{"", wh::AggKind::kCount, "", "n"},
                                 {"node_hours", wh::AggKind::kMax, "", "max_nh"},
                                 {"node_hours", wh::AggKind::kMin, "", "min_nh"}})
                     .run();
  // Apps in first-seen order: NAMD, AMBER, WRF.
  EXPECT_EQ(g.col("n").as_int64(0), 3);
  EXPECT_DOUBLE_EQ(g.col("max_nh").as_double(0), 100.0);
  EXPECT_DOUBLE_EQ(g.col("min_nh").as_double(0), 25.0);
}

TEST(Query, WhereFilter) {
  const auto t = jobs_table();
  const auto g = wh::Query(t)
                     .where(wh::eq("app", "NAMD"))
                     .group_by({"user"})
                     .aggregate({{"", wh::AggKind::kCount, "", "n"}})
                     .run();
  EXPECT_EQ(g.rows(), 2u);  // alice, bob
}

TEST(Query, PredicateHelpers) {
  const auto t = jobs_table();
  const auto g = wh::Query(t)
                     .where(wh::all_of({wh::ge("node_hours", 50.0),
                                        wh::le("cpu_idle", 0.2),
                                        wh::between("nodes", 4.0, 40.0)}))
                     .group_by({})
                     .aggregate({{"", wh::AggKind::kCount, "", "n"}})
                     .run();
  ASSERT_EQ(g.rows(), 1u);
  EXPECT_EQ(g.col("n").as_int64(0), 3);  // alice100, alice50, carol
}

TEST(Query, GlobalAggregateWithoutKeys) {
  const auto t = jobs_table();
  const auto g =
      wh::Query(t).group_by({}).aggregate({{"node_hours", wh::AggKind::kMean, "", ""}}).run();
  ASSERT_EQ(g.rows(), 1u);
  EXPECT_DOUBLE_EQ(g.col("node_hours_mean").as_double(0), 155.0);
}

TEST(Query, MultiKeyGrouping) {
  const auto t = jobs_table();
  const auto g = wh::Query(t)
                     .group_by({"user", "app"})
                     .aggregate({{"", wh::AggKind::kCount, "", "n"}})
                     .run();
  EXPECT_EQ(g.rows(), 4u);  // alice/NAMD, bob/AMBER, bob/NAMD, carol/WRF
}

TEST(Query, Int64KeyGrouping) {
  const auto t = jobs_table();
  const auto g = wh::Query(t)
                     .group_by({"nodes"})
                     .aggregate({{"", wh::AggKind::kCount, "", "n"}})
                     .run();
  EXPECT_EQ(g.rows(), 5u);  // all distinct node counts
  EXPECT_EQ(g.col("nodes").as_int64(0), 16);
}

TEST(Query, RejectsNoAggregates) {
  const auto t = jobs_table();
  EXPECT_THROW((void)wh::Query(t).group_by({"user"}).run(), supremm::InvalidArgument);
}

TEST(Query, TimeBucket) {
  EXPECT_EQ(wh::time_bucket(0, 600), 0);
  EXPECT_EQ(wh::time_bucket(599, 600), 0);
  EXPECT_EQ(wh::time_bucket(600, 600), 600);
  EXPECT_EQ(wh::time_bucket(1234, 600), 1200);
}

// --- aggregate edge cases (DESIGN.md §12 satellite coverage) ----------------

namespace {

/// n rows of (k, v) with an optional zone index.
wh::Table edge_table(std::size_t rows, std::size_t chunk_rows,
                     double (*value)(std::size_t)) {
  wh::Table t("edge", {{"k", wh::ColType::kInt64}, {"v", wh::ColType::kDouble}});
  for (std::size_t r = 0; r < rows; ++r) {
    t.append().set("k", static_cast<std::int64_t>(r % 3)).set("v", value(r));
  }
  if (chunk_rows > 0) t.rebuild_zone_index(chunk_rows);
  return t;
}

}  // namespace

// A predicate matching nothing must yield a schema-complete empty result for
// grouped queries (no groups, not a zero-filled row) at every thread count.
TEST(QueryEdges, EmptyGroupByResultSet) {
  const auto t = edge_table(1000, 64, [](std::size_t r) { return static_cast<double>(r); });
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    wh::Query q(t);
    const auto out = q.where(wh::ge("v", 1e9))
                         .group_by({"k"})
                         .aggregate({{"v", wh::AggKind::kSum, "", ""},
                                     {"", wh::AggKind::kCount, "", "n"}})
                         .threads(threads)
                         .run();
    EXPECT_EQ(out.rows(), 0u) << threads << " threads";
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_EQ(q.stats().rows_matched, 0u);
  }
}

// When the zone maps exclude every chunk, nothing is scanned — and the
// result must still be well-formed and empty.
TEST(QueryEdges, AllChunksPruned) {
  const auto t = edge_table(1024, 64, [](std::size_t r) { return static_cast<double>(r % 50); });
  wh::Query q(t);
  const auto out = q.where(wh::ge("v", 1000.0))
                       .group_by({"k"})
                       .aggregate({{"", wh::AggKind::kCount, "", "n"}})
                       .run();
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(q.stats().chunks_total, 16u);
  EXPECT_EQ(q.stats().chunks_pruned, 16u);
  EXPECT_EQ(q.stats().rows_scanned, 0u);
  EXPECT_EQ(q.stats().rows_matched, 0u);
}

// Single-row table: the degenerate chunk/segment grid still produces exact
// aggregates, with and without a zone index.
TEST(QueryEdges, SingleRowTable) {
  for (const std::size_t chunk_rows : {std::size_t{0}, std::size_t{4096}}) {
    const auto t = edge_table(1, chunk_rows, [](std::size_t) { return -2.5; });
    wh::Query q(t);
    const auto out = q.group_by({"k"})
                         .aggregate({{"v", wh::AggKind::kSum, "", ""},
                                     {"v", wh::AggKind::kMean, "", ""},
                                     {"v", wh::AggKind::kMax, "", ""},
                                     {"v", wh::AggKind::kMin, "", ""},
                                     {"", wh::AggKind::kCount, "", "n"}})
                         .run();
    ASSERT_EQ(out.rows(), 1u);
    EXPECT_EQ(out.col("k").as_int64(0), 0);
    EXPECT_EQ(out.col("v_sum").as_double(0), -2.5);
    EXPECT_EQ(out.col("v_mean").as_double(0), -2.5);
    EXPECT_EQ(out.col("v_max").as_double(0), -2.5);
    EXPECT_EQ(out.col("v_min").as_double(0), -2.5);
    EXPECT_EQ(out.col("n").as_int64(0), 1);
  }
}

// min/max over a group whose values are all NaN: NaN never wins a
// std::min/std::max against the seed, so the accumulators stay at their
// +inf/-inf initials and that is what the engine emits (n > 0, so the
// zero-guard does not apply). This pins the documented behavior — a silent
// change here would break oracle bit-compatibility.
TEST(QueryEdges, MinMaxOverAllNaNGroupEmitsInfinities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  wh::Table t("edge", {{"k", wh::ColType::kInt64}, {"v", wh::ColType::kDouble}});
  for (int r = 0; r < 4; ++r) t.append().set("k", std::int64_t{1}).set("v", nan);
  for (int r = 0; r < 3; ++r) t.append().set("k", std::int64_t{2}).set("v", 7.0);
  const auto out = wh::Query(t)
                       .group_by({"k"})
                       .aggregate({{"v", wh::AggKind::kMin, "", ""},
                                   {"v", wh::AggKind::kMax, "", ""},
                                   {"v", wh::AggKind::kSum, "", ""}})
                       .run();
  ASSERT_EQ(out.rows(), 2u);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(out.col("v_min").as_double(0), inf);
  EXPECT_EQ(out.col("v_max").as_double(0), -inf);
  EXPECT_TRUE(std::isnan(out.col("v_sum").as_double(0)));  // NaN poisons sums
  EXPECT_EQ(out.col("v_min").as_double(1), 7.0);
  EXPECT_EQ(out.col("v_max").as_double(1), 7.0);
  EXPECT_EQ(out.col("v_sum").as_double(1), 21.0);
}
