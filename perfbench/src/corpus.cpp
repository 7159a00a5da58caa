// Paper-shaped job corpus. make_rollup_jobs (6 users x 4 apps x 3 clusters)
// keeps hash maps and rollup cell counts tiny; the portal in the paper
// answers over 858,021 jobs from ~3,400 users, so this generator draws the
// real user populations (Zipf activity, per-user app mixes) of both paper
// clusters over the full application catalogue and ~600 days.
#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "bench.h"
#include "common/strings.h"
#include "common/time.h"
#include "facility/apps.h"
#include "facility/hardware.h"
#include "facility/users.h"

namespace perfbench {

namespace {

constexpr double kDaySec = static_cast<double>(common::kDay);

/// Index drawn from a cumulative weight table by binary search.
std::size_t draw_cdf(const std::vector<double>& cdf, common::RngStream& g) {
  const double u = g.uniform() * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

std::vector<double> cumulative(const std::vector<double>& w) {
  std::vector<double> cdf(w.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) cdf[i] = acc += w[i];
  return cdf;
}

/// One cluster's jobs (ids assigned later, after the global submit sort).
void cluster_jobs(const facility::ClusterSpec& spec, const std::string& prefix,
                  const std::vector<facility::AppSignature>& cat, std::size_t n,
                  std::uint64_t seed, std::vector<etl::JobSummary>& out) {
  const facility::UserPopulation pop = facility::UserPopulation::generate(spec, cat, seed);
  const std::vector<double> user_cdf = cumulative(pop.activity_weights());
  const double peak_node = spec.node.peak_gflops_per_node();
  const auto cores = spec.node.cores();
  for (std::size_t i = 0; i < n; ++i) {
    common::RngStream g(seed, "perfbench.corpus." + spec.name, i);
    const facility::User& u = pop.user(draw_cdf(user_cdf, g));
    std::size_t app = u.app_ids.empty() ? 0 : u.app_ids[0];
    if (u.app_ids.size() > 1) app = u.app_ids[g.weighted_index(u.app_weights)];
    const facility::AppSignature& sig = cat[app];
    const facility::JobBehavior b = facility::realize(sig, spec.name, spec.node.mem_gb, g);

    etl::JobSummary j;
    j.user = prefix + u.name;
    j.project = prefix + u.project;
    j.science = std::string(facility::science_name(u.science));
    j.app = sig.name;
    j.cluster = spec.name;
    // Submissions uniform over the span; queue wait and run time follow the
    // cluster's calibration (node-hour weighted mean job length).
    j.submit = static_cast<common::TimePoint>(g.uniform(0.0, (kSpanDays - 2) * kDaySec));
    j.start = j.submit + static_cast<common::Duration>(g.exponential(2.0 * 3600.0));
    const double minutes = std::clamp(
        spec.mean_job_minutes * u.duration_mult * g.lognormal(-0.5, 1.0), 1.0, 48.0 * 60.0);
    j.end = j.start + static_cast<common::Duration>(minutes * 60.0) + 1;
    const double nodes = std::clamp(std::round(sig.nodes.draw(g) * u.size_mult), 1.0,
                                    std::min(sig.max_nodes, static_cast<double>(spec.node_count)));
    j.nodes = static_cast<std::size_t>(nodes);
    j.cores = j.nodes * cores;
    j.node_hours = nodes * static_cast<double>(j.end - j.start) / 3600.0;
    j.failed = g.chance(sig.failure_prob) ? 1 : 0;
    j.exit_status = j.failed != 0 || g.chance(0.03) ? 1 : 0;
    j.samples = static_cast<std::size_t>((j.end - j.start) / 600 + 1);
    j.reconciled = g.chance(0.02);
    j.flops_valid = g.chance(0.97);
    const double idle = std::min(0.98, b.idle_frac * spec.idle_usage_mult);
    j.cpu_idle = idle;
    j.cpu_system = b.sys_frac;
    j.cpu_user = std::max(0.0, 1.0 - idle - b.sys_frac);
    j.cpu_flops_gf_node = b.flops_frac * peak_node * (1.0 - idle);
    j.mem_used_gb = std::min(spec.node.mem_gb, b.mem_gb * spec.mem_usage_mult);
    j.mem_used_max_gb = std::min(spec.node.mem_gb, j.mem_used_gb * g.uniform(1.0, 1.3));
    j.io_scratch_write_mb_s = b.scratch_write_mb_s;
    j.io_work_write_mb_s = b.work_write_mb_s;
    j.io_scratch_read_mb_s = b.scratch_read_mb_s;
    j.net_ib_tx_mb_s = b.ib_tx_mb_s;
    j.net_ib_rx_mb_s = b.ib_tx_mb_s * g.uniform(0.8, 1.2);
    j.net_lnet_tx_mb_s = b.scratch_write_mb_s + b.work_write_mb_s;
    j.net_lnet_rx_mb_s = b.scratch_read_mb_s;
    j.swap_mb_s = g.chance(0.02) ? g.exponential(5.0) : 0.0;
    j.load_mean = static_cast<double>(cores) * (1.0 - idle);
    out.push_back(std::move(j));
  }
}

/// Distinct values of a field, most frequent first (ties by value).
template <typename Get>
std::vector<std::string> by_frequency(const std::vector<etl::JobSummary>& jobs, Get get) {
  std::unordered_map<std::string, std::size_t> counts;
  for (const auto& j : jobs) ++counts[get(j)];
  std::vector<std::pair<std::string, std::size_t>> v(counts.begin(), counts.end());
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<std::string> out;
  out.reserve(v.size());
  for (auto& [name, n] : v) out.push_back(std::move(name));
  return out;
}

}  // namespace

Corpus make_corpus(double scale, std::uint64_t seed) {
  const std::vector<facility::AppSignature> cat = facility::standard_catalogue();
  const auto n_r = static_cast<std::size_t>(std::llround(kPaperRangerJobs * scale));
  const auto n_l = static_cast<std::size_t>(std::llround(kPaperLonestarJobs * scale));
  Corpus c;
  c.jobs.reserve(n_r + n_l);
  cluster_jobs(facility::ranger(), "r", cat, n_r, seed, c.jobs);
  cluster_jobs(facility::lonestar4(), "l", cat, n_l, seed, c.jobs);
  // A batch system assigns ids in submission order.
  std::stable_sort(c.jobs.begin(), c.jobs.end(),
                   [](const etl::JobSummary& a, const etl::JobSummary& b) {
                     return a.submit < b.submit;
                   });
  c.first_day = std::numeric_limits<std::int64_t>::max();
  c.last_day = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    c.jobs[i].id = static_cast<facility::JobId>(i + 1);
    const std::int64_t d = (c.jobs[i].end - 1) / common::kDay;
    c.first_day = std::min(c.first_day, d);
    c.last_day = std::max(c.last_day, d);
  }
  c.users = by_frequency(c.jobs, [](const auto& j) { return j.user; });
  c.apps = by_frequency(c.jobs, [](const auto& j) { return j.app; });
  c.projects = by_frequency(c.jobs, [](const auto& j) { return j.project; });
  c.clusters = by_frequency(c.jobs, [](const auto& j) { return j.cluster; });
  return c;
}

ZipfPicker::ZipfPicker(std::size_t n, double s)
    : cdf_(cumulative(common::zipf_weights(std::max<std::size_t>(n, 1), s))) {}

std::size_t ZipfPicker::operator()(common::RngStream& g) const { return draw_cdf(cdf_, g); }

}  // namespace perfbench
