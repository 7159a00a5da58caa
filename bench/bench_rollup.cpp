// DESIGN.md §16: XDMoD-style dashboards answer their standing queries from
// pre-aggregated rollup tables, not raw scans. This bench publishes a large
// synthetic jobs population to two services, one with rollups and one
// without, first gates on in-bench bit-identity — every dashboard request
// served from rollup cells must equal the raw scan bit-for-bit — then
// measures a dashboard-mix workload on each (p50/p99 client-observed
// latency, rollup hit rate) and the incremental maintenance cost per
// archive append. Results go to BENCH_rollup.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"

namespace {

using namespace supremm;
using bench::quantile;
using bench::seconds_since;

constexpr std::size_t kRows = 400'000;
constexpr int kIterations = 40;  // passes over the dashboard mix per mode
constexpr double kSpeedupFloor = 5.0;

service::ServiceConfig make_config(bool rollups) {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_limit = 256;
  cfg.cache_entries = 0;  // measure execution, not result caching
  cfg.rollups = rollups;
  return cfg;
}

/// The dashboard mix: the standing report shapes a portal refreshes — all
/// subsumable — plus two requests only the raw path can serve, so the miss
/// path stays honest in the same run.
const std::vector<std::string>& dashboard_mix() {
  static const std::vector<std::string> mix = {
      // Facility-wide time series at every grain.
      "query jobs group week agg count(),sum(node_hours)",
      "query jobs group month agg count(),sum(node_hours)",
      "query jobs group quarter agg sum(node_hours),wmean(cpu_idle,node_hours)",
      "query jobs group day agg count()",
      // Per-dimension breakdowns.
      "query jobs group user agg sum(node_hours),wmean(cpu_idle,node_hours)",
      "query jobs group app agg sum(node_hours),mean(mem_used_gb),count()",
      "query jobs group cluster,month agg sum(node_hours),count()",
      "query jobs group user,week agg sum(node_hours)",
      // Filtered dashboards: one cluster, one user, a quarter window.
      "query jobs where cluster = \"c0\" group month agg sum(node_hours),count()",
      "query jobs where user = \"u1\" group week agg sum(node_hours),wmean(cpu_idle,node_hours)",
      "query jobs where end >= 1 and end <= 7257600 group user agg sum(node_hours),count()",
      "query jobs where quarter >= 7257600 group app,quarter agg sum(node_hours)",
      "query jobs group user,app,cluster agg count(),sum(node_hours),max(mem_used_max_gb)",
      "query jobs where app = \"app2\" group quarter agg min(load_mean),max(load_mean)",
      // Raw-only shapes: a metric-range filter and a non-metric aggregate.
      "query jobs where node_hours >= 100 group user agg count()",
      "query jobs group cluster agg mean(end)",
  };
  return mix;
}

void require_ok(const service::ResponsePtr& r, const std::string& text) {
  if (r->status != service::Status::kOk) {
    std::fprintf(stderr, "bench_rollup: request failed (%s): %s\n  %s\n",
                 service::to_string(r->status), r->error.c_str(), text.c_str());
    std::exit(1);
  }
}

struct MixTiming {
  std::vector<double> ms;  // one client-observed sample per request
  double p50 = 0.0, p99 = 0.0;
};

MixTiming time_mix(service::Session& sess, int iterations) {
  MixTiming out;
  for (int it = 0; it < iterations; ++it) {
    for (const std::string& text : dashboard_mix()) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = sess.run(text);
      out.ms.push_back(seconds_since(t0) * 1e3);
      require_ok(r, text);
    }
  }
  std::sort(out.ms.begin(), out.ms.end());
  out.p50 = quantile(out.ms, 0.5);
  out.p99 = quantile(out.ms, 0.99);
  return out;
}

}  // namespace

int main() {
  bench::print_experiment_header(
      "rollup", "§4.3 dashboards served from pre-aggregated tables, not raw scans");

  auto t0 = std::chrono::steady_clock::now();
  std::vector<etl::JobSummary> jobs =
      testkit::make_rollup_jobs({.rows = kRows, .seed = bench::kSeed});
  service::Service svc(make_config(/*rollups=*/true));
  svc.publish_jobs(jobs);
  std::printf("[setup] %zu jobs published, %.2fs (rollup cells: %zu)\n", kRows,
              seconds_since(t0), svc.metrics().rollup_cells);
  t0 = std::chrono::steady_clock::now();
  service::Service raw_svc(make_config(/*rollups=*/false));
  raw_svc.publish_jobs(std::move(jobs));
  std::printf("[setup] same jobs published without rollups, %.2fs\n", seconds_since(t0));

  bench::BenchJson json("rollup");
  json.record("setup")
      .num("rows", static_cast<double>(kRows))
      .num("mix", static_cast<double>(dashboard_mix().size()))
      .num("cells", static_cast<double>(svc.metrics().rollup_cells));

  auto sess = svc.session("dashboard");
  auto raw_sess = raw_svc.session("dashboard");

  // Phase 1 — identity gate: every request in the mix, rollup-served vs the
  // raw scan over the same jobs. Any bit difference is a hard bench failure.
  t0 = std::chrono::steady_clock::now();
  for (const std::string& text : dashboard_mix()) {
    const auto served = sess.run(text);
    const auto raw = raw_sess.run(text);
    require_ok(served, text);
    require_ok(raw, text);
    if (auto diff = testkit::table_diff(*served->table, *raw->table)) {
      std::fprintf(stderr, "bench_rollup: rollup-served diverged from raw: %s\n  %s\n",
                   diff->c_str(), text.c_str());
      return 1;
    }
  }
  std::printf("[gate] %zu requests bit-identical rollup vs raw (%.2fs)\n",
              dashboard_mix().size(), seconds_since(t0));

  // Phase 2 — dashboard-mix latency, rollups on vs off.
  const auto before = svc.metrics();
  const MixTiming on = time_mix(sess, kIterations);
  const auto after = svc.metrics();
  const MixTiming off = time_mix(raw_sess, kIterations);

  const double hits = static_cast<double>(after.rollup_hits - before.rollup_hits);
  const double reqs = static_cast<double>(on.ms.size());
  const double hit_rate = reqs > 0 ? hits / reqs : 0.0;
  const double speedup_p50 = on.p50 > 0 ? off.p50 / on.p50 : 0.0;
  std::printf("[mix] rollups ON:  p50 %8.3f ms  p99 %8.3f ms  (hit rate %.2f)\n",
              on.p50, on.p99, hit_rate);
  std::printf("[mix] rollups OFF: p50 %8.3f ms  p99 %8.3f ms\n", off.p50, off.p99);
  std::printf("[mix] p50 speedup: %.1fx (floor %.1fx)\n", speedup_p50, kSpeedupFloor);
  json.record("dashboard_mix")
      .num("requests_per_mode", reqs)
      .num("p50_on_ms", on.p50)
      .num("p99_on_ms", on.p99)
      .num("p50_off_ms", off.p50)
      .num("p99_off_ms", off.p99)
      .num("p50_speedup", speedup_p50)
      .num("hit_rate", hit_rate);

  // Phase 3 — incremental maintenance cost per append on a small simulated
  // archive: cells/partitions staged and jobs partitions re-read per commit.
  const auto& run = bench::ranger_run();
  const std::string dir = "bench_rollup_archive";
  std::filesystem::remove_all(dir);
  archive::Archive ar(dir);
  double append_s = 0.0;
  std::uint64_t cells = 0;
  std::size_t parts = 0, read_back = 0;
  const int kAppends = 4;
  for (int i = 1; i <= kAppends; ++i) {
    etl::IngestConfig cfg;
    cfg.start = run.start;
    const int days = i * 7;
    cfg.span = days * common::kDay;
    cfg.cluster = run.spec.name;
    const auto ta = std::chrono::steady_clock::now();
    const archive::AppendStats st = ar.append(
        cfg, run.files, run.acct, run.lariat_records, run.catalogue,
        etl::project_science_map(*run.population), "bench-rollup",
        run.start + days * common::kDay);
    append_s += seconds_since(ta);
    cells += st.rollup_cells_written;
    parts += st.rollup_partitions_written;
    read_back += st.rollup_days_read_back;
  }
  std::filesystem::remove_all(dir);
  std::printf(
      "[maint] %d appends: %.2fs total, %llu cells, %zu rollup partitions, "
      "%zu jobs partitions re-read\n",
      kAppends, append_s, static_cast<unsigned long long>(cells), parts, read_back);
  json.record("maintenance")
      .num("appends", kAppends)
      .num("seconds_total", append_s)
      .num("seconds_per_append", append_s / kAppends)
      .num("cells_written", static_cast<double>(cells))
      .num("rollup_partitions", static_cast<double>(parts))
      .num("jobs_days_read_back", static_cast<double>(read_back));

  json.write("BENCH_rollup.json");

  if (speedup_p50 < kSpeedupFloor) {
    std::fprintf(stderr,
                 "bench_rollup: p50 speedup %.2fx below the %.1fx acceptance floor\n",
                 speedup_p50, kSpeedupFloor);
    return 1;
  }
  std::printf("\nbench_rollup: OK\n");
  return 0;
}
