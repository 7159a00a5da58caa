// `federated`: one closed-loop client against a coordinator Service bound to
// four shards over TCP on 127.0.0.1. Shards are placed the way a multi-site
// deployment places them, {ranger, lonestar4} x {first, second half of the
// time span}, so cluster filters and time windows let the catalog prune.
// The coordinator's result cache is off: every request crosses the wire.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "archive/tables.h"
#include "bench.h"
#include "federation/executor.h"
#include "federation/federation.h"
#include "federation/transport.h"
#include "federation/wire.h"
#include "service/request.h"
#include "warehouse/partial.h"

namespace perfbench {

namespace {

constexpr double kCorpusScale = 0.1;  // as the single-warehouse workloads
constexpr int kSetups = 5;
constexpr std::size_t kShards = 4;

/// Members are destroyed bottom-up: the coordinator stops, then the servers
/// stop and join, and only then go the executors they serve.
struct Fed {
  Corpus corpus;
  std::vector<std::unique_ptr<federation::ShardExecutor>> executors;
  std::vector<std::unique_ptr<federation::ShardServer>> servers;
  std::shared_ptr<federation::Federation> fed;
  std::unique_ptr<service::Service> coordinator;
};

/// Builds shards, servers and the coordinator for `corpus`. Returns the
/// seconds from the start of the shard builds to the first OK answer, and
/// the seconds until the coordinator was bound.
std::pair<double, double> publish(Fed& f, const Options& o) {
  const auto t0 = Clock::now();
  const std::int64_t mid = (f.corpus.first_day + f.corpus.last_day + 1) / 2;
  std::vector<std::vector<etl::JobSummary>> slices(kShards);
  for (const etl::JobSummary& j : f.corpus.jobs) {
    const std::size_t cluster = j.cluster == "ranger" ? 0 : 1;
    const std::size_t half = (j.end - 1) / common::kDay < mid ? 0 : 1;
    slices[cluster * 2 + half].push_back(j);
  }
  f.fed = std::make_shared<federation::Federation>();
  const char* names[kShards] = {"ranger-h1", "ranger-h2", "lonestar4-h1", "lonestar4-h2"};
  for (std::size_t i = 0; i < kShards; ++i) {
    auto ex = std::make_unique<federation::ShardExecutor>(names[i], archive::jobs_table(slices[i]));
    auto server = std::make_unique<federation::ShardServer>(*ex);
    f.fed->add_shard(ex->info(),
                     std::make_shared<federation::SocketTransport>("127.0.0.1", server->port()));
    f.executors.push_back(std::move(ex));
    f.servers.push_back(std::move(server));
  }
  f.coordinator = make_service(o, /*rollups=*/true, /*cache=*/0);
  f.coordinator->bind_remote(f.fed);
  const double bound_s = seconds_since(t0);
  if (f.coordinator->session("probe").run("query jobs group month agg count()")->status !=
      service::Status::kOk) {
    throw std::runtime_error("the first federated query failed");
  }
  return {seconds_since(t0), bound_s};
}

struct FedLayers {
  std::vector<double> straggler;      // per request: max / median shard ms
  std::vector<double> partial_bytes;  // per request, summed over shards
  std::vector<double> transport_ms;   // per contacted shard, coordinator-observed
};

/// Replays `texts` through the federation's public pieces: catalog prune,
/// ShardExecutor::execute per contacted shard, pack/unpack of its partial,
/// merge_partials; then the whole scatter-gather over TCP for the
/// coordinator-observed exchange times.
void replay_federation(const std::vector<std::string>& texts, const Fed& f, double budget_s,
                       Tracer& tr, std::atomic<std::uint64_t>& ids, FedLayers& out) {
  const auto start = Clock::now();
  for (const Parsed& p : parse_all(texts, tr, ids)) {
    if (seconds_since(start) > budget_s) break;
    const std::uint64_t req = p.request_id;
    const service::QuerySpec& spec = p.request.query;
    Scope root(&tr, "replay", 0, req);
    std::vector<std::size_t> contacted = f.fed->catalog().prune(spec);
    if (contacted.empty()) contacted.push_back(0);
    std::vector<warehouse::partial::Partial> parts;
    std::vector<double> shard_ms;
    double bytes = 0;
    for (const std::size_t i : contacted) {
      federation::wire::PartialMsg msg;
      const auto te = Clock::now();
      {
        Scope s(&tr, "federation.ShardExecutor::execute", root.id(), req);
        msg = f.executors[i]->execute(spec, 0, "job_id");
      }
      shard_ms.push_back(ms_between(te, Clock::now()));
      std::string packed;
      {
        Scope s(&tr, "federation.wire::pack_partial", root.id(), req);
        packed = federation::wire::pack_partial(msg);
      }
      bytes += static_cast<double>(packed.size());
      Scope s(&tr, "federation.wire::unpack_partial", root.id(), req);
      parts.push_back(federation::wire::unpack_partial(packed).partial);
    }
    {
      Scope s(&tr, "warehouse.partial::merge_partials", root.id(), req);
      (void)warehouse::partial::merge_partials(parts, spec.aggs, "jobs_agg");
    }
    out.partial_bytes.push_back(bytes);
    if (shard_ms.size() > 1) {
      out.straggler.push_back(*std::max_element(shard_ms.begin(), shard_ms.end()) /
                              std::max(1e-9, median(shard_ms)));
    }
    service::RemoteResult rr;
    {
      Scope s(&tr, "federation.Federation::run", root.id(), req);
      rr = f.fed->run(spec);
    }
    for (const service::RemoteShardReport& rep : rr.shards) {
      if (rep.outcome == service::RemoteShardReport::Outcome::kOk) out.transport_ms.push_back(rep.ms);
    }
  }
}

}  // namespace

Result run_federated(const Options& o) {
  Result r;
  std::atomic<std::uint64_t> ids{0};
  std::vector<double> setup, fresh, mb_s;
  std::unique_ptr<RssPeak> rss;
  std::unique_ptr<Fed> fp;
  const int reps = o.trace ? 1 : kSetups;
  for (int i = 0; i < reps; ++i) {
    fp.reset();  // stop the previous servers before building the next set
    if (i == reps - 1) rss = std::make_unique<RssPeak>();
    fp = std::make_unique<Fed>();
    const auto t0 = Clock::now();
    fp->corpus = make_corpus(kCorpusScale, o.seed);
    const auto [fresh_s, bound_s] = publish(*fp, o);
    setup.push_back(seconds_since(t0));
    fresh.push_back(fresh_s);
    std::fprintf(stderr, "[setup] %d: set-up %.3f s, update to first answer %.3f s\n", i,
                 setup.back(), fresh_s);
    mb_s.push_back(jobs_table_mb(fp->corpus.jobs.size()) / bound_s);
  }
  Fed& f = *fp;
  r.set("setup_s", median(setup), "s");
  r.set("freshness_s", median(fresh), "s");
  r.set("ingest_mb_s", median(mb_s), "MB/s");

  const auto mix = std::make_shared<FederatedMix>(f.corpus);
  const NextRequest next = [mix](common::RngStream& g, std::uint64_t i) { return mix->next(g, i); };
  const Phase main = closed_loop(*f.coordinator, next, o.seconds, o.seed, nullptr, ids);
  Phase traced;
  Result layers;
  if (!o.trace) {
    latency_metrics(main, r);
    r.set("peak_rss_mb", rss->mb(), "MB");
  } else {
    Tracer tr;
    const service::ServiceMetrics before = f.coordinator->metrics();
    traced = closed_loop(*f.coordinator, next, o.seconds, o.seed, &tr, ids);
    const service::ServiceMetrics m = f.coordinator->metrics();
    double ok = 0, pruned = 0;
    for (const auto& [name, c] : m.shards) {
      const auto it = before.shards.find(name);
      ok += static_cast<double>(c.ok - (it != before.shards.end() ? it->second.ok : 0));
      pruned += static_cast<double>(c.pruned - (it != before.shards.end() ? it->second.pruned : 0));
    }
    layers.set("federation.prune_ratio", ok + pruned > 0 ? pruned / (ok + pruned) : 0.0, "ratio");

    std::vector<std::string> texts;
    for (const Answer& a : traced.answers) {
      if (texts.size() >= 150) break;
      texts.push_back(a.resp->canonical.empty() ? a.text : a.resp->canonical);
    }
    // The single-warehouse layers on the same requests, 3 in 5 of them
    // support-staff triage shapes: compile, scan, partial collect/fold and
    // the scan at 1 vs nproc threads.
    const warehouse::Table jobs = published_jobs_table(f.corpus.jobs);
    const auto tb = Clock::now();
    const warehouse::rollup::RollupSet rollups = warehouse::rollup::build_from_table(jobs);
    layers.set("rollup.build_s", seconds_since(tb), "s");
    layers.set("rollup.cells", static_cast<double>(rollups.cells()), "count");
    const double replay_s = o.seconds * kReplayShare / 2;
    LayerStats ls;
    replay_layers(texts, jobs, &rollups, f.corpus.jobs, o.nproc, replay_s, tr, ids, ls);
    service::ServiceMetrics delta = m;
    delta.cache_hits -= before.cache_hits;
    delta.cache_misses -= before.cache_misses;
    delta.rollup_hits -= before.rollup_hits;
    delta.rollup_misses -= before.rollup_misses;
    layer_metrics(ls, delta, traced.answers, layers);

    FedLayers fl;
    replay_federation(texts, f, replay_s, tr, ids, fl);
    layers.set("federation.shard_ms", median(tr.self_ms("federation.ShardExecutor::execute")), "ms");
    layers.set("federation.straggler_ratio", median(fl.straggler), "ratio");
    layers.set("federation.partial_bytes", median(fl.partial_bytes), "bytes");
    layers.set("federation.wire_encode_ms", median(tr.self_ms("federation.wire::pack_partial")), "ms");
    layers.set("federation.wire_decode_ms", median(tr.self_ms("federation.wire::unpack_partial")), "ms");
    layers.set("federation.merge_ms", median(tr.self_ms("warehouse.partial::merge_partials")), "ms");
    layers.set("federation.transport_ms", median(fl.transport_ms), "ms");
    layers.set("trace.overhead_ms", median(traced.latency_ms) - median(main.latency_ms), "ms");
    layers.set("client.latency_p90_ms", quantile(main.latency_ms, 0.90), "ms");
    layers.set("client.latency_p99_ms", quantile(main.latency_ms, 0.99), "ms");
    std::filesystem::create_directories(o.out_dir);
    tr.write(o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json");
  }

  count_answers(main, r);
  count_answers(traced, r);
  // Reference: the single warehouse holding every shard's rows, raw scan.
  const auto ref = make_service(o, /*rollups=*/false, /*cache=*/0);
  ref->publish_jobs(f.corpus.jobs);
  gate_against(*ref, pointers({&main, &traced}), o.nproc, r);
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
