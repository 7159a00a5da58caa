// §4.3 claim: the warehouse is consumed "through a web portal" by many
// concurrent stakeholders. This bench stands up the embedded serving tier
// (DESIGN.md §13) over a 1M-row corpus and drives it with 8 concurrent
// client threads drawing from a shared pool of generated requests, reporting
// throughput, exact p50/p99 client-observed latency, and the result-cache
// hit rate to BENCH_service.json.
//
// Before the load phase it asserts the service's core correctness contract
// in-bench: for every request in the pool, the cached-hit response is
// bit-identical (testkit table/stats oracle) to both the cold miss that
// produced it and a fresh run on a cache-disabled service.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "testkit/genquery.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"

namespace {

using namespace supremm;
using bench::quantile;
using bench::seconds_since;

constexpr std::size_t kRows = 1'000'000;
constexpr std::size_t kChunkRows = 1024;
constexpr std::size_t kPoolSize = 16;
constexpr int kClients = 8;                // acceptance floor: >= 8
constexpr int kRequestsPerClient = 40;

service::ServiceConfig make_config() {
  service::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_limit = 256;
  cfg.cache_entries = 64;
  return cfg;
}

void require_ok(const service::ResponsePtr& r, const std::string& text) {
  if (r->status != service::Status::kOk) {
    std::fprintf(stderr, "bench_service: request failed (%s): %s\n  %s\n",
                 service::to_string(r->status), r->error.c_str(), text.c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  bench::print_experiment_header(
      "service", "§4.3: one warehouse serving many concurrent portal consumers");

  auto t0 = std::chrono::steady_clock::now();
  warehouse::Table corpus = testkit::make_corpus({kRows, kChunkRows, bench::kSeed});
  std::printf("[setup] corpus: %zu rows x %zu cols, chunk %zu (%.2fs build)\n",
              corpus.rows(), corpus.columns().size(), kChunkRows, seconds_since(t0));

  std::vector<std::string> pool;
  for (std::uint64_t i = 0; pool.size() < kPoolSize; ++i) {
    pool.push_back(testkit::make_request_text(bench::kSeed, i, "corpus"));
  }
  std::printf("[setup] request pool: %zu generated requests, %d clients x %d requests\n",
              pool.size(), kClients, kRequestsPerClient);

  bench::BenchJson json("service");
  json.record("setup")
      .num("rows", static_cast<double>(kRows))
      .num("chunk_rows", static_cast<double>(kChunkRows))
      .num("pool", static_cast<double>(pool.size()))
      .num("clients", kClients)
      .num("workers", make_config().workers);

  // Phase 1: cached answers must be bit-identical to fresh ones, for every
  // request in the pool. Miss + hit on a caching service, one cold run on a
  // cache-disabled service; any divergence is a hard bench failure.
  {
    service::Service hot(make_config());
    service::ServiceConfig cold_cfg = make_config();
    cold_cfg.cache_entries = 0;
    service::Service cold(cold_cfg);
    hot.publish_tables({{"corpus", corpus}});
    cold.publish_tables({{"corpus", corpus}});
    auto hot_sess = hot.session("identity-hot");
    auto cold_sess = cold.session("identity-cold");

    t0 = std::chrono::steady_clock::now();
    for (const std::string& text : pool) {
      auto miss = hot_sess.run(text);
      auto hit = hot_sess.run(text);
      auto fresh = cold_sess.run(text);
      require_ok(miss, text);
      require_ok(hit, text);
      require_ok(fresh, text);
      if (!hit->cache_hit || miss->cache_hit || fresh->cache_hit) {
        std::fprintf(stderr, "bench_service: unexpected cache behaviour\n  %s\n",
                     text.c_str());
        return 1;
      }
      for (const auto* other : {miss.get(), fresh.get()}) {
        if (auto diff = testkit::table_diff(*hit->table, *other->table)) {
          std::fprintf(stderr, "bench_service: cached table diverged: %s\n  %s\n",
                       diff->c_str(), text.c_str());
          return 1;
        }
        if (auto diff = testkit::stats_diff(hit->stats, other->stats)) {
          std::fprintf(stderr, "bench_service: cached stats diverged: %s\n  %s\n",
                       diff->c_str(), text.c_str());
          return 1;
        }
      }
    }
    std::printf("[identity] %zu requests: cache hit == cold miss == fresh service "
                "(bit-identical, %.2fs)\n", pool.size(), seconds_since(t0));
    json.record("identity")
        .num("requests_checked", static_cast<double>(pool.size()))
        .str("result", "bit-identical");
  }

  // Phase 2: concurrent load. Fresh service (cold cache) so the reported hit
  // rate reflects exactly this workload's sharing, not the identity phase.
  service::Service svc(make_config());
  svc.publish_tables({{"corpus", corpus}});

  std::vector<std::vector<double>> lat(kClients);
  t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto sess = svc.session("client-" + std::to_string(c));
        lat[static_cast<std::size_t>(c)].reserve(kRequestsPerClient);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          // Offset per client so the pool is walked in different orders and
          // first touches are spread across clients.
          const std::string& text =
              pool[static_cast<std::size_t>(c * 5 + i) % pool.size()];
          const auto r0 = std::chrono::steady_clock::now();
          auto resp = sess.run(text);
          lat[static_cast<std::size_t>(c)].push_back(seconds_since(r0) * 1e3);
          require_ok(resp, text);
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_s = seconds_since(t0);

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const auto total = static_cast<double>(all.size());
  const double rps = total / wall_s;
  const double p50 = quantile(all, 0.50);
  const double p99 = quantile(all, 0.99);

  const auto m = svc.metrics();
  const auto looked_up = m.cache_hits + m.cache_misses;
  const double hit_rate =
      looked_up == 0 ? 0.0
                     : static_cast<double>(m.cache_hits) / static_cast<double>(looked_up);

  std::printf("[load] %d clients x %d requests in %.2fs: %.0f req/s\n",
              kClients, kRequestsPerClient, wall_s, rps);
  std::printf("[load] latency ms: p50 %.3f  p99 %.3f  max %.3f\n",
              p50, p99, all.back());
  std::printf("[load] cache: %llu hits / %llu lookups (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(m.cache_hits),
              static_cast<unsigned long long>(looked_up), 100.0 * hit_rate);
  std::printf("[metrics] %s\n", svc.metrics_json().c_str());

  json.record("concurrent")
      .num("requests", total)
      .num("seconds", wall_s)
      .num("requests_per_second", rps)
      .num("p50_ms", p50)
      .num("p99_ms", p99)
      .num("max_ms", all.back())
      .num("cache_hit_rate", hit_rate)
      .num("queue_peak", static_cast<double>(m.queue_peak));
  json.write("BENCH_service.json");
  return 0;
}
