// The single-warehouse workload `dashboard`: portal users in an open loop.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

/// Paper job counts x 0.1: 85,802 jobs, keeping 3,400 users, 12 apps and
/// 600 days, so hash maps and rollup cells keep their paper cardinality
/// while a run still fits in seconds.
constexpr double kCorpusScale = 0.1;
/// Set-ups per untraced run; setup_s, freshness_s and ingest_mb_s report
/// the median.
constexpr int kSetups = 5;
/// Offered rate of the dashboard open loop. The result cache answers about
/// a third of the stream; the rest keeps the four workers lightly busy, so
/// the loop runs without a growing backlog and a request seldom queues
/// behind another (at 300 req/s queueing made the median follow other
/// tenants' load on the host).
constexpr double kDashboardRate = 150.0;
/// Result-cache entries of the dashboard's service.
constexpr int kDashboardCache = 256;

struct Stack {
  std::unique_ptr<RssPeak> rss;  // from the last set-up on
  Corpus corpus;
  std::unique_ptr<service::Service> svc;
};

/// Publishes `corpus` into a fresh service and waits for the first answer
/// on it. Returns {publish-to-first-answer seconds, publish seconds}.
std::pair<double, double> publish(service::Service& svc, const Corpus& c) {
  const auto t0 = Clock::now();
  svc.publish_jobs(c.jobs);
  const double publish_s = seconds_since(t0);
  if (svc.session("probe").run("query jobs group month agg count()")->status !=
      service::Status::kOk) {
    throw std::runtime_error("the first query after publish failed");
  }
  return {seconds_since(t0), publish_s};
}

/// Builds the corpus and the serving stack `reps` times (the last one is
/// kept) and reports the set-up metrics as medians.
Stack set_up(const Options& o, int reps, Result& r) {
  std::vector<double> setup, fresh, mb_s;
  Stack st;
  for (int i = 0; i < reps; ++i) {
    st = Stack{};  // release the previous copy before building the next
    if (i == reps - 1) st.rss = std::make_unique<RssPeak>();
    const auto t0 = Clock::now();
    st.corpus = make_corpus(kCorpusScale, o.seed);
    st.svc = make_service(o, /*rollups=*/true, kDashboardCache);
    const auto [fresh_s, publish_s] = publish(*st.svc, st.corpus);
    setup.push_back(seconds_since(t0));
    fresh.push_back(fresh_s);
    std::fprintf(stderr, "[setup] %d: set-up %.3f s, update to first answer %.3f s\n", i,
                 setup.back(), fresh_s);
    mb_s.push_back(jobs_table_mb(st.corpus.jobs.size()) / publish_s);
  }
  r.set("setup_s", median(setup), "s");
  r.set("freshness_s", median(fresh), "s");
  r.set("ingest_mb_s", median(mb_s), "MB/s");
  const service::ServiceMetrics m = st.svc->metrics();
  std::fprintf(stderr, "[setup] %zu jobs, %zu users, %zu apps, days %lld..%lld, %zu rollup cells\n",
               st.corpus.jobs.size(), st.corpus.users.size(), st.corpus.apps.size(),
               static_cast<long long>(st.corpus.first_day),
               static_cast<long long>(st.corpus.last_day), m.rollup_cells);
  return st;
}

/// Runs the open loop: an unmeasured warm-up at the same rate, so timing
/// starts with the result cache filled as on a portal that has been up for
/// a while, then the measured phase.
Phase portal_loop(service::Service& svc, const NextRequest& next, const Options& o, Tracer* tr,
                  std::atomic<std::uint64_t>& ids, Phase& warm) {
  warm = open_loop(svc, next, kDashboardRate, o.seconds * kWarmShare, o.seed + 2, nullptr, ids);
  return open_loop(svc, next, kDashboardRate, o.seconds, o.seed, tr, ids);
}

}  // namespace

Result run_dashboard(const Options& o) {
  Result r;
  std::atomic<std::uint64_t> ids{0};
  Stack st = set_up(o, o.trace ? 1 : kSetups, r);
  const auto mix = std::make_shared<DashboardMix>(st.corpus);
  const NextRequest next = [mix](common::RngStream& g, std::uint64_t i) { return mix->next(g, i); };

  Phase warm, traced_warm, traced;
  const Phase main = portal_loop(*st.svc, next, o, nullptr, ids, warm);
  Result layers;
  if (!o.trace) {
    latency_metrics(main, r);
    r.set("peak_rss_mb", st.rss->mb(), "MB");
  } else {
    // Same corpus, same request stream, a fresh service: the traced phase
    // differs from the untraced one only by its spans.
    Tracer tr;
    auto svc = make_service(o, /*rollups=*/true, kDashboardCache);
    (void)publish(*svc, st.corpus);
    const service::ServiceMetrics m0 = svc->metrics();
    traced = portal_loop(*svc, next, o, &tr, ids, traced_warm);
    service::ServiceMetrics m = svc->metrics();
    m.cache_hits -= m0.cache_hits;
    m.cache_misses -= m0.cache_misses;
    svc.reset();

    std::vector<std::string> texts;
    for (const Answer& a : traced.answers) {
      if (texts.size() < 400 && a.resp->status == service::Status::kOk &&
          std::find(texts.begin(), texts.end(), a.resp->canonical) == texts.end()) {
        texts.push_back(a.resp->canonical);
      }
    }
    const warehouse::Table jobs = published_jobs_table(st.corpus.jobs);
    const auto tb = Clock::now();
    const warehouse::rollup::RollupSet rollups = warehouse::rollup::build_from_table(jobs);
    layers.set("rollup.build_s", seconds_since(tb), "s");
    layers.set("rollup.cells", static_cast<double>(rollups.cells()), "count");
    LayerStats ls;
    replay_layers(texts, jobs, &rollups, st.corpus.jobs, 0, o.seconds * kReplayShare, tr, ids, ls);
    layer_metrics(ls, m, traced.answers, layers);
    layers.set("trace.overhead_ms", median(traced.latency_ms) - median(main.latency_ms), "ms");
    layers.set("client.latency_p90_ms", quantile(main.latency_ms, 0.90), "ms");
    layers.set("client.latency_p99_ms", quantile(main.latency_ms, 0.99), "ms");
    std::vector<double> late;
    for (const Answer& a : traced.answers) late.push_back(a.late_ms);
    layers.set("client.generator_late_ms_p99", quantile(late, 0.99), "ms");
    std::filesystem::create_directories(o.out_dir);
    tr.write(o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json");
  }

  for (const Phase* p : std::initializer_list<const Phase*>{&warm, &main, &traced_warm, &traced}) {
    count_answers(*p, r);
  }
  auto ref = make_service(o, /*rollups=*/false, /*cache=*/0);
  ref->publish_jobs(st.corpus.jobs);
  gate_against(*ref, pointers({&warm, &main, &traced_warm, &traced}), o.nproc, r);
  if (o.trace) {
    layers.correct = r.correct;
    layers.attempted = r.attempted;
    layers.failed = r.failed;
    layers.errors = r.errors;
    return layers;
  }
  return r;
}

}  // namespace perfbench
