// Request mixes. The shape of request i follows a fixed cycle, so every run
// has the same mix of shapes whatever its seed; the seed draws only the
// literals. Literals come from the corpus's own domains (ranked by job
// count) so filters select real populations; Zipf draws make a few users
// and apps hot, which is what lets the result cache hit on part of the
// dashboard stream.
#include <algorithm>
#include <cinttypes>

#include "bench.h"
#include "common/strings.h"
#include "common/time.h"

namespace perfbench {

namespace {

template <std::size_t N>
const char* cycle(const char* const (&xs)[N], std::uint64_t i) {
  return xs[i % N];
}

/// `end` bounds that cut exactly at day edges (rollup-servable).
std::string day_window(std::int64_t first, std::int64_t days) {
  const std::int64_t lo = first * common::kDay + 1;
  const std::int64_t hi = (first + days) * common::kDay;
  return common::strprintf("end >= %" PRId64 " and end <= %" PRId64, lo, hi);
}

/// Shape i of the triage cycle: which metric-range terms (7 non-empty
/// subsets), the grouping (4) and the aggregate list (3), each taken modulo
/// its own count. The counts are coprime, so 84 requests cover every
/// combination and any run of requests has near-even shares of each.
std::string adhoc_shape(common::RngStream& g, std::uint64_t i) {
  const std::uint64_t terms = i % 7 + 1;
  std::string where;
  const auto add = [&where](const std::string& term) {
    where += where.empty() ? " where " : " and ";
    where += term;
  };
  if ((terms & 1) != 0) {
    const double lo = g.uniform(0.0, 0.4);
    add(common::strprintf("cpu_idle between %.9g and %.9g", lo, lo + g.uniform(0.15, 0.35)));
  }
  if ((terms & 2) != 0) {
    add(common::strprintf("mem_used_max_gb >= %.9g", g.uniform(2.0, 8.0)));
  }
  if ((terms & 4) != 0) {
    const double lo = g.uniform(0.0, 20.0);
    add(common::strprintf("node_hours between %.9g and %.9g", lo, lo + g.uniform(500.0, 2000.0)));
  }
  static const char* const kGroups[] = {"user", "app", "project", "user,app"};
  static const char* const kAggs[] = {
      "count(),sum(node_hours),mean(cpu_flops_gf_node)",
      "count(),max(mem_used_max_gb),wmean(cpu_idle,node_hours)",
      "sum(node_hours),mean(io_scratch_write_mb_s),max(swap_mb_s)"};
  return where + " group " + cycle(kGroups, i) + " agg " + cycle(kAggs, i);
}

}  // namespace

DashboardMix::DashboardMix(const Corpus& c)
    : c_(&c),
      users_(c.users.size(), 1.1),
      apps_(c.apps.size(), 1.0),
      projects_(c.projects.size(), 1.1) {}

std::string DashboardMix::next(common::RngStream& g, std::uint64_t i) const {
  // 40 slots: 5 raw-only (1 in 8), 10 xdmod reports, 25 rollup-servable.
  // The standing report shapes run over a date range the user picks, so
  // they reach the rollups; popular users and projects, recent ranges and
  // the raw-only shapes' few thresholds repeat and hit the result cache.
  // The cache answers about a third of the stream, so the median request
  // does work.
  enum Shape { kRaw, kReport, kUserReport, kSeries, kBreakdown, kUserFilter, kAppFilter,
               kClusterFilter, kWindow };
  static const Shape kCycle[40] = {
      kSeries, kUserFilter, kReport, kRaw, kBreakdown, kUserReport, kWindow, kSeries,
      kUserFilter, kAppFilter, kReport, kUserReport, kSeries, kRaw, kClusterFilter, kUserFilter,
      kBreakdown, kWindow, kUserReport, kReport, kSeries, kAppFilter, kRaw, kUserFilter,
      kBreakdown, kUserReport, kWindow, kSeries, kReport, kClusterFilter, kUserFilter, kRaw,
      kAppFilter, kBreakdown, kUserReport, kReport, kWindow, kSeries, kUserFilter, kRaw};
  const Corpus& c = *c_;
  const std::uint64_t turn = i / 40;  // advances the fixed choices below
  // A date range the user picks: a week, 4 weeks or a quarter, ending on
  // one of the last 28 days.
  const auto to_date = [&](std::int64_t days) {
    days = std::min(days, c.last_day - c.first_day + 1);
    const std::int64_t last = c.last_day - g.uniform_int(0, std::min<std::int64_t>(27, c.last_day + 1 - c.first_day - days));
    return day_window(last + 1 - days, days);
  };
  const auto range = [&](std::uint64_t k) {
    static const std::int64_t kDays[] = {7, 28, 84};
    return to_date(kDays[k % 3]);
  };
  switch (kCycle[i % 40]) {
    case kRaw: {
      // Raw-only: a metric-range filter no rollup can serve.
      static const double kThresholds[] = {2, 4, 8, 12, 16, 20};
      static const char* const kGroups[] = {"app", "cluster", "month"};
      return common::strprintf(
          "query jobs where mem_used_max_gb >= %g group %s agg count(),sum(node_hours)",
          kThresholds[g.uniform_int(0, 5)], cycle(kGroups, i));
    }
    case kReport: {
      static const char* const kDims[] = {"user", "application", "science", "cluster"};
      return common::strprintf(
          "report jobs dimension %s stats job_count,total_node_hours,avg_cpu_idle "
          "filter project = \"%s\" sort total_node_hours limit 20",
          cycle(kDims, i + turn), c.projects[projects_(g)].c_str());
    }
    case kUserReport:
      return common::strprintf(
          "report jobs dimension application stats job_count,total_node_hours,avg_cpu_idle "
          "filter user = \"%s\"",
          c.users[users_(g)].c_str());
    case kSeries: {
      static const char* const kGrains[] = {"day", "week", "month", "quarter"};
      return "query jobs where " + range(i + turn) + " group " + cycle(kGrains, i + turn) +
             " agg count(),sum(node_hours),wmean(cpu_idle,node_hours)";
    }
    case kBreakdown: {
      static const char* const kDims[] = {"user", "app", "cluster"};
      return "query jobs where " + range(i + turn) + " group " + cycle(kDims, i + turn) +
             " agg sum(node_hours),count(),mean(mem_used_gb)";
    }
    case kUserFilter:
      return common::strprintf(
          "query jobs where user = \"%s\" group month agg sum(node_hours),count(),"
          "wmean(cpu_idle,node_hours)",
          c.users[users_(g)].c_str());
    case kAppFilter:
      return common::strprintf("query jobs where app = \"%s\" and ", c.apps[apps_(g)].c_str()) +
             range(turn) + " group week agg sum(node_hours),count()";
    case kClusterFilter:
      return common::strprintf("query jobs where cluster = \"%s\" and ",
                               c.clusters[(i + turn) % c.clusters.size()].c_str()) +
             range(turn + 1) + " group app agg sum(node_hours),count()";
    case kWindow: {
      // The portal's 4- and 12-week windows, ending on a random day.
      static const char* const kGroups[] = {"app", "project"};
      return "query jobs where " + to_date((i + turn) % 2 == 0 ? 28 : 84) + " group " +
             cycle(kGroups, turn) + " agg sum(node_hours),count()";
    }
  }
  return {};
}

std::string adhoc_request(common::RngStream& g, std::uint64_t i, std::size_t threads) {
  return "query jobs" + adhoc_shape(g, i) + common::strprintf(" threads %zu", threads);
}

FederatedMix::FederatedMix(const Corpus& c)
    : c_(&c), users_(c.users.size(), 1.1), apps_(c.apps.size(), 1.0) {}

std::string FederatedMix::next(common::RngStream& g, std::uint64_t i) const {
  // 20 slots: 12 adhoc shapes, 8 dashboard shapes of which 5 prune. An
  // even split would put the median between the two cost modes.
  enum Shape { kAdhoc, kSeries, kCluster, kWindow, kUser, kApp };
  static const Shape kCycle[20] = {kAdhoc, kSeries, kAdhoc, kWindow, kAdhoc, kCluster, kAdhoc,
                                   kUser, kAdhoc, kWindow, kAdhoc, kAdhoc, kCluster, kAdhoc,
                                   kWindow, kAdhoc, kApp, kAdhoc, kAdhoc, kAdhoc};
  // Rank of each adhoc slot within the cycle, so the adhoc shapes run
  // through their own cycle in order.
  static const std::uint64_t kAdhocRank[20] = {0, 0, 1, 0, 2, 0, 3, 0, 4, 0,
                                               5, 6, 0, 7, 0, 8, 0, 9, 10, 11};
  const Corpus& c = *c_;
  const std::uint64_t turn = i / 20;
  switch (kCycle[i % 20]) {
    case kAdhoc:
      // One thread each: the four shards already spread a request over the cores.
      return adhoc_request(g, turn * 12 + kAdhocRank[i % 20], 1);
    case kSeries: {
      static const char* const kGrains[] = {"week", "month"};
      return common::strprintf(
          "query jobs group %s agg count(),sum(node_hours),wmean(cpu_idle,node_hours)",
          cycle(kGrains, turn));
    }
    case kCluster: {
      static const char* const kGroups[] = {"app", "month", "user"};
      return common::strprintf("query jobs where cluster = \"%s\" group %s agg sum(node_hours),count()",
                               c.clusters[(i / 2) % c.clusters.size()].c_str(),
                               cycle(kGroups, turn));
    }
    case kWindow: {
      // A random day-aligned window: usually inside one time half, so the
      // catalog prunes the other half's shards.
      static const char* const kGroups[] = {"app", "user", "cluster"};
      const std::int64_t days = g.uniform_int(7, 90);
      const std::int64_t first = g.uniform_int(c.first_day, c.last_day - days);
      return "query jobs where " + day_window(first, days) + " group " + cycle(kGroups, i) +
             " agg sum(node_hours),count()";
    }
    case kUser:
      return common::strprintf(
          "query jobs where user = \"%s\" group month agg sum(node_hours),count()",
          c.users[users_(g)].c_str());
    case kApp:
      return common::strprintf("query jobs where app = \"%s\" group cluster,week agg count()",
                               c.apps[apps_(g)].c_str());
  }
  return {};
}

}  // namespace perfbench
