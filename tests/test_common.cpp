// Unit tests for the common module: time, rng, strings, csv, checksum,
// worker pool, ascii tables.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/ascii_table.h"
#include "common/checksum.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/time.h"

namespace sc = supremm::common;

// --- time -------------------------------------------------------------------

TEST(Time, Constants) {
  EXPECT_EQ(sc::kMinute, 60);
  EXPECT_EQ(sc::kHour, 3600);
  EXPECT_EQ(sc::kDay, 86400);
  EXPECT_EQ(sc::kWeek, 7 * 86400);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(sc::to_hours(sc::kHour), 1.0);
  EXPECT_DOUBLE_EQ(sc::to_hours(90 * sc::kMinute), 1.5);
  EXPECT_DOUBLE_EQ(sc::to_minutes(sc::kHour), 60.0);
}

TEST(Time, DayArithmetic) {
  EXPECT_EQ(sc::day_of(0), 0);
  EXPECT_EQ(sc::day_of(sc::kDay - 1), 0);
  EXPECT_EQ(sc::day_of(sc::kDay), 1);
  EXPECT_EQ(sc::second_of_day(sc::kDay + 42), 42);
}

TEST(Time, WeekdayEpochIsMonday) {
  EXPECT_EQ(sc::weekday_of(0), 0);
  EXPECT_EQ(sc::weekday_of(5 * sc::kDay), 5);  // Saturday
  EXPECT_EQ(sc::weekday_of(7 * sc::kDay), 0);
}

TEST(Time, Format) {
  EXPECT_EQ(sc::format_time(0), "0+00:00:00");
  EXPECT_EQ(sc::format_time(sc::kDay + 3 * sc::kHour + 4 * sc::kMinute + 5), "1+03:04:05");
  EXPECT_EQ(sc::format_duration(3661), "01:01:01");
  EXPECT_EQ(sc::format_duration(-61), "-00:01:01");
}

TEST(TimeAxis, Basics) {
  sc::TimeAxis ax(100, 10, 5);
  EXPECT_EQ(ax.size(), 5u);
  EXPECT_EQ(ax.at(0), 100);
  EXPECT_EQ(ax.at(4), 140);
  EXPECT_EQ(ax.end(), 140);
}

TEST(TimeAxis, IndexAt) {
  sc::TimeAxis ax(100, 10, 5);
  EXPECT_EQ(ax.index_at(99), sc::TimeAxis::npos);
  EXPECT_EQ(ax.index_at(100), 0u);
  EXPECT_EQ(ax.index_at(109), 0u);
  EXPECT_EQ(ax.index_at(110), 1u);
  EXPECT_EQ(ax.index_at(1000), 4u);  // clamped to last
}

TEST(TimeAxis, RejectsBadStep) {
  EXPECT_THROW(sc::TimeAxis(0, 0, 10), supremm::InvalidArgument);
  EXPECT_THROW(sc::TimeAxis(0, -5, 10), supremm::InvalidArgument);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  sc::RngStream a(7, 13);
  sc::RngStream b(7, 13);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentStreamsDiffer) {
  sc::RngStream a(7, 13);
  sc::RngStream b(7, 14);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NamedStreams) {
  sc::RngStream a(7, "workload", 3);
  sc::RngStream b(7, "workload", 3);
  sc::RngStream c(7, "users", 3);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  // Different purpose gives a different stream (overwhelmingly likely).
  sc::RngStream a2(7, "workload", 3);
  EXPECT_NE(a2.uniform(), c.uniform());
}

TEST(Rng, UniformRange) {
  sc::RngStream r(1, 2);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  sc::RngStream r(1, 3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NormalMoments) {
  sc::RngStream r(1, 4);
  double sum = 0, sum2 = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ExponentialMean) {
  sc::RngStream r(1, 5);
  double sum = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ExponentialRejectsBadMean) {
  sc::RngStream r(1, 6);
  EXPECT_THROW((void)r.exponential(0.0), supremm::InvalidArgument);
  EXPECT_THROW((void)r.exponential(-1.0), supremm::InvalidArgument);
}

TEST(Rng, PoissonMean) {
  sc::RngStream r(1, 7);
  double sum = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(4.5));
  EXPECT_NEAR(sum / n, 4.5, 0.15);
  EXPECT_EQ(r.poisson(0.0), 0);
}

TEST(Rng, ChanceEdgeCases) {
  sc::RngStream r(1, 8);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ParetoSupport) {
  sc::RngStream r(1, 9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
  EXPECT_THROW((void)r.pareto(0.0, 1.0), supremm::InvalidArgument);
}

TEST(Rng, WeightedIndexDistribution) {
  sc::RngStream r(1, 10);
  const std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += r.weighted_index(w) == 1 ? 1 : 0;
  EXPECT_NEAR(ones / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexRejectsEmptyAndZero) {
  sc::RngStream r(1, 11);
  EXPECT_THROW((void)r.weighted_index({}), supremm::InvalidArgument);
  EXPECT_THROW((void)r.weighted_index({0.0, 0.0}), supremm::InvalidArgument);
}

TEST(Rng, ZipfWeights) {
  const auto w = sc::zipf_weights(4, 1.0);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_GT(w[2], w[3]);
}

TEST(Rng, HashStringStable) {
  EXPECT_EQ(sc::hash_string("abc"), sc::hash_string("abc"));
  EXPECT_NE(sc::hash_string("abc"), sc::hash_string("abd"));
}

TEST(Rng, SplitMix64Avalanche) {
  EXPECT_NE(sc::splitmix64(1), sc::splitmix64(2));
  EXPECT_NE(sc::splitmix64(0), 0u);
}

// --- strings ------------------------------------------------------------

TEST(Strings, SplitPreservesEmpty) {
  const auto p = sc::split("a::b:", ':');
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], "a");
  EXPECT_EQ(p[1], "");
  EXPECT_EQ(p[2], "b");
  EXPECT_EQ(p[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto p = sc::split_ws("  a\t b  c ");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], "a");
  EXPECT_EQ(p[2], "c");
  EXPECT_TRUE(sc::split_ws("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(sc::trim("  x "), "x");
  EXPECT_EQ(sc::trim(""), "");
  EXPECT_EQ(sc::trim(" \t\n"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(sc::starts_with("foobar", "foo"));
  EXPECT_FALSE(sc::starts_with("fo", "foo"));
}

TEST(Strings, Join) {
  EXPECT_EQ(sc::join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(sc::join({}, ","), "");
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(sc::parse_i64("-42"), -42);
  EXPECT_EQ(sc::parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(sc::parse_f64("2.5e3"), 2500.0);
  EXPECT_EQ(sc::parse_i64("  7 "), 7);  // trimmed
}

TEST(Strings, ParseRejectsGarbage) {
  EXPECT_THROW((void)sc::parse_i64("abc"), supremm::ParseError);
  EXPECT_THROW((void)sc::parse_i64("12x"), supremm::ParseError);
  EXPECT_THROW((void)sc::parse_i64(""), supremm::ParseError);
  EXPECT_THROW((void)sc::parse_f64("1.2.3"), supremm::ParseError);
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(sc::strprintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(sc::strprintf("%.2f", 1.234), "1.23");
}

// --- csv ----------------------------------------------------------------

TEST(Csv, QuotingRules) {
  EXPECT_EQ(sc::csv_quote("plain"), "plain");
  EXPECT_EQ(sc::csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(sc::csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(sc::csv_quote("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RowOutput) {
  std::ostringstream os;
  sc::CsvWriter w(os);
  w.row({"a", "b,c", "d"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n");
}

TEST(Csv, IncrementalFields) {
  std::ostringstream os;
  sc::CsvWriter w(os);
  w.field("x").field(2.5).field(static_cast<std::int64_t>(-3));
  w.end_row();
  w.field("next");
  w.end_row();
  EXPECT_EQ(os.str(), "x,2.5,-3\nnext\n");
}

// --- checksum ---------------------------------------------------------------

namespace {

/// Bytewise reference CRC-32 (reflected 0xEDB88320, no tables), independent
/// of the sliced implementation under test.
std::uint32_t crc32_reference(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char ch : data) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::string crc_bytes(std::size_t n, std::uint64_t seed) {
  sc::RngStream rng(seed, 0);
  std::string s(n, '\0');
  for (char& ch : s) ch = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

}  // namespace

TEST(Checksum, StandardCheckValue) {
  EXPECT_EQ(sc::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(sc::crc32(""), 0u);
  EXPECT_EQ(crc32_reference("123456789"), 0xCBF43926u);
}

TEST(Checksum, MatchesBytewiseReferenceAtEveryOffset) {
  // Lengths 0-64 cover every tail length around the 8-byte step; the start
  // offsets 0-7 cover every alignment of the 8-byte loads.
  const std::string buf = crc_bytes(64 + 8, 11);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view s(buf.data() + off, len);
      ASSERT_EQ(sc::crc32(s), crc32_reference(s)) << "offset " << off << " length " << len;
    }
  }
  const std::string big = crc_bytes((std::size_t{1} << 20) + 13, 12);
  for (std::size_t off = 0; off < 8; ++off) {
    const std::string_view s(big.data() + off, big.size() - off);
    EXPECT_EQ(sc::crc32(s), crc32_reference(s)) << "offset " << off;
  }
}

TEST(Checksum, SeededChainingEqualsWholeInput) {
  const std::string data = crc_bytes(1000, 13);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{333}, std::size_t{1000}}) {
    const std::string_view a(data.data(), split);
    const std::string_view b(data.data() + split, data.size() - split);
    EXPECT_EQ(sc::crc32(b, sc::crc32(a)), sc::crc32(data)) << "split " << split;
    EXPECT_EQ(sc::crc32(b, sc::crc32(a)), crc32_reference(b, crc32_reference(a)));
  }
}

// --- worker pool ------------------------------------------------------------

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  sc::WorkerPool pool(3);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.run(n, threads, grain, [&hits](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads
                                       << " grain=" << grain << " index " << i;
        }
      }
    }
  }
}

TEST(WorkerPool, SingleThreadRunsOnCaller) {
  sc::WorkerPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  pool.run(ran_on.size(), 1, 0, [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(WorkerPool, FirstExceptionIsRethrown) {
  sc::WorkerPool pool(3);
  // Inline, the first unit to throw is unit 3, and no later unit runs.
  std::vector<int> ran;
  try {
    pool.run(10, 1, 0, [&ran](std::size_t i) {
      ran.push_back(static_cast<int>(i));
      if (i == 3 || i == 7) throw std::runtime_error("unit " + std::to_string(i));
    });
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unit 3");
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
  // Across participants exactly one exception surfaces, and the pool stays
  // usable afterwards.
  EXPECT_THROW(pool.run(1000, 4, 1,
                        [](std::size_t i) {
                          if (i % 100 == 99) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  std::atomic<std::size_t> total{0};
  pool.run(1000, 4, 0, [&total](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(WorkerPool, NestedRunCompletes) {
  // A unit that submits its own job must not deadlock even when every worker
  // is busy in the outer job: the nested caller participates in its job.
  constexpr std::size_t kOuter = 16, kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  sc::pool_run(kOuter, 4, 1, [&hits](std::size_t o) {
    sc::pool_run(kInner, 4, 0, [&hits, o](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- ascii table ------------------------------------------------------------

TEST(AsciiTable, RendersHeaderAndRows) {
  sc::AsciiTable t("Title");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"beta", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, RightAlignsNumbers) {
  sc::AsciiTable t;
  t.header({"v"});
  t.row({"5"});
  t.row({"500"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("|   5 |"), std::string::npos);
  EXPECT_NE(s.find("| 500 |"), std::string::npos);
}

TEST(AsciiTable, RejectsWidthMismatch) {
  sc::AsciiTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), supremm::InvalidArgument);
}

TEST(AsciiTable, RowBuilder) {
  sc::AsciiTable t;
  t.header({"s", "f", "i"});
  t.add_row().cell("x").cell(3.14159, "%.2f").cell(static_cast<std::int64_t>(9));
  const std::string s = t.to_string();
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
}

TEST(AsciiTable, Bar) {
  EXPECT_EQ(sc::ascii_bar(5.0, 10.0, 10).size(), 5u);
  EXPECT_EQ(sc::ascii_bar(20.0, 10.0, 10).size(), 10u);  // capped
  EXPECT_TRUE(sc::ascii_bar(0.0, 10.0, 10).empty());
  EXPECT_TRUE(sc::ascii_bar(1.0, 0.0, 10).empty());
}

// --- errors -------------------------------------------------------------

TEST(Errors, Hierarchy) {
  EXPECT_THROW(throw supremm::ParseError("x"), supremm::Error);
  EXPECT_THROW(throw supremm::NotFoundError("x"), supremm::Error);
  EXPECT_THROW(throw supremm::InvalidArgument("x"), supremm::Error);
  try {
    throw supremm::ParseError("detail");
  } catch (const supremm::Error& e) {
    EXPECT_NE(std::string(e.what()).find("detail"), std::string::npos);
  }
}
