// DESIGN.md §17: federated scatter-gather over the versioned binary shard
// protocol. This bench builds one large synthetic jobs population, places it
// across {1,2,5} shards with the adversarial (cluster, day)-cell placement,
// first gates on in-bench bit-identity — every merged scatter-gather answer
// must equal the single-warehouse engine bit-for-bit at every shard count —
// then measures coordinator-observed latency of a federated query mix per
// shard count against the single-warehouse baseline, the wire cost
// (partial bytes shipped per query), and the median time of each stage —
// shard execute, pack+frame, unpack, merge. Results go to
// BENCH_federation.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "federation/executor.h"
#include "federation/federation.h"
#include "federation/transport.h"
#include "federation/wire.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"
#include "warehouse/partial.h"

namespace {

using namespace supremm;
using bench::quantile;
using bench::seconds_since;

constexpr std::size_t kRows = 300'000;
constexpr int kIterations = 25;  // passes over the query mix per shard count
constexpr std::size_t kShardCounts[] = {1, 2, 5};
constexpr std::size_t kThreads = 8;

/// The federated mix: facility-wide rollup shapes, per-dimension breakdowns,
/// cluster- and time-filtered queries (the ones catalog pruning bites on),
/// and raw-only shapes every shard must scan for.
const std::vector<std::string>& query_mix() {
  static const std::vector<std::string> mix = {
      "query jobs group week agg count(),sum(node_hours)",
      "query jobs group user agg sum(node_hours),wmean(cpu_idle,node_hours)",
      "query jobs group cluster,month agg sum(node_hours),count()",
      "query jobs where cluster = \"c0\" group month agg sum(node_hours),count()",
      "query jobs where end >= 1 and end <= 7257600 group user agg sum(node_hours),count()",
      "query jobs group user,app,cluster agg count(),sum(node_hours),max(mem_used_max_gb)",
      "query jobs where node_hours >= 100 group user agg count()",
      "query jobs group cluster agg mean(end)",
  };
  return mix;
}

struct ParsedMix {
  std::vector<service::QuerySpec> specs;
  std::vector<testkit::QuerySpec> tspecs;
};

ParsedMix parse_mix() {
  ParsedMix out;
  for (const std::string& text : query_mix()) {
    service::QuerySpec spec = service::parse_request(text).query;
    spec.threads = kThreads;
    out.specs.push_back(std::move(spec));
  }
  return out;
}

struct FedBench {
  std::vector<std::unique_ptr<federation::ShardExecutor>> executors;
  std::shared_ptr<federation::Federation> fed;
};

FedBench make_fed(const std::vector<etl::JobSummary>& jobs, std::size_t nshards) {
  FedBench f;
  f.fed = std::make_shared<federation::Federation>();
  const auto slices = testkit::split_jobs_for_shards(jobs, nshards, bench::kSeed);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    federation::ShardExecutor::Options opts;
    opts.rollups = true;
    auto ex = std::make_unique<federation::ShardExecutor>(
        "shard" + std::to_string(i), archive::jobs_table(slices[i]), opts);
    f.fed->add_shard(ex->info(), std::make_shared<federation::LoopbackTransport>(*ex));
    f.executors.push_back(std::move(ex));
  }
  return f;
}

/// Median per-query time of each stage of a scatter-gather, run serially
/// stage by stage through the same calls the shard and the coordinator
/// make. A query's stage time sums its contacted shards (the live
/// federation overlaps them on one thread per shard).
struct StageMedians {
  double execute_ms = 0.0;     // ShardExecutor::execute
  double pack_frame_ms = 0.0;  // pack_partial + frame
  double unpack_ms = 0.0;      // read_frame + unpack_partial
  double merge_ms = 0.0;       // merge_partials
};

constexpr int kStagePasses = 5;

StageMedians stage_medians(const FedBench& f, const ParsedMix& mix) {
  namespace wire = federation::wire;
  std::vector<double> execute, pack_frame, unpack, merge;
  for (int it = 0; it < kStagePasses; ++it) {
    for (const service::QuerySpec& spec : mix.specs) {
      std::vector<std::size_t> contacted = f.fed->catalog().prune(spec);
      if (contacted.empty()) contacted.push_back(0);
      double ex_ms = 0.0, pf_ms = 0.0, un_ms = 0.0;
      std::vector<warehouse::partial::Partial> parts;
      for (const std::size_t shard : contacted) {
        auto t = std::chrono::steady_clock::now();
        const wire::PartialMsg msg = f.executors[shard]->execute(spec, 0, "job_id");
        ex_ms += seconds_since(t) * 1e3;
        t = std::chrono::steady_clock::now();
        const std::string framed = wire::frame(wire::MsgType::kPartial, wire::pack_partial(msg));
        pf_ms += seconds_since(t) * 1e3;
        t = std::chrono::steady_clock::now();
        std::size_t offset = 0;
        parts.push_back(wire::unpack_partial(wire::read_frame(framed, offset).payload).partial);
        un_ms += seconds_since(t) * 1e3;
      }
      const auto t = std::chrono::steady_clock::now();
      const warehouse::Table merged =
          warehouse::partial::merge_partials(parts, spec.aggs, spec.table + "_agg");
      merge.push_back(seconds_since(t) * 1e3);
      execute.push_back(ex_ms);
      pack_frame.push_back(pf_ms);
      unpack.push_back(un_ms);
    }
  }
  return {bench::median_of(execute), bench::median_of(pack_frame), bench::median_of(unpack),
          bench::median_of(merge)};
}

}  // namespace

int main() {
  bench::print_experiment_header(
      "federation",
      "§17 multi-cluster scatter-gather: merged shard partials, bit-identical");

  auto t0 = std::chrono::steady_clock::now();
  const std::vector<etl::JobSummary> jobs =
      testkit::make_rollup_jobs({.rows = kRows, .seed = bench::kSeed});
  warehouse::Table ref = archive::jobs_table(jobs);
  warehouse::rollup::augment_jobs_table(ref);
  ref.rebuild_zone_index(archive::kDefaultChunkRows);
  std::printf("[setup] %zu jobs, single-warehouse reference built in %.2fs\n", kRows,
              seconds_since(t0));

  bench::BenchJson json("federation");
  json.record("setup")
      .num("rows", static_cast<double>(kRows))
      .num("mix", static_cast<double>(query_mix().size()))
      .num("threads", static_cast<double>(kThreads));

  const ParsedMix mix = parse_mix();

  // Single-warehouse baseline: the same compiled queries against the
  // un-sharded reference (what a non-federated deployment answers).
  std::vector<warehouse::Table> baseline;
  std::vector<double> base_ms;
  for (int it = 0; it < kIterations; ++it) {
    for (std::size_t i = 0; i < mix.specs.size(); ++i) {
      const auto tq = std::chrono::steady_clock::now();
      warehouse::Query q = service::compile(mix.specs[i], ref);
      warehouse::Table result = q.run();
      base_ms.push_back(seconds_since(tq) * 1e3);
      if (it == 0) baseline.push_back(std::move(result));
    }
  }
  std::sort(base_ms.begin(), base_ms.end());
  const double base_p50 = quantile(base_ms, 0.5);
  const double base_p99 = quantile(base_ms, 0.99);
  std::printf("[baseline] single warehouse: p50 %8.3f ms  p99 %8.3f ms\n", base_p50,
              base_p99);
  json.record("single_warehouse").num("p50_ms", base_p50).num("p99_ms", base_p99);

  for (const std::size_t nshards : kShardCounts) {
    t0 = std::chrono::steady_clock::now();
    const FedBench f = make_fed(jobs, nshards);
    const double build_s = seconds_since(t0);

    // Identity gate: every mix query, merged scatter-gather vs the baseline
    // table. Any bit difference is a hard bench failure.
    for (std::size_t i = 0; i < mix.specs.size(); ++i) {
      const service::RemoteResult res = f.fed->run(mix.specs[i]);
      if (!res.complete) {
        std::fprintf(stderr, "bench_federation: incomplete scatter at %zu shards\n",
                     nshards);
        return 1;
      }
      if (auto diff = testkit::table_diff(*res.table, baseline[i])) {
        std::fprintf(stderr,
                     "bench_federation: %zu-shard merge diverged from single "
                     "warehouse: %s\n  %s\n",
                     nshards, diff->c_str(), query_mix()[i].c_str());
        return 1;
      }
    }
    std::printf("[gate] %zu shards: %zu queries bit-identical to single warehouse\n",
                nshards, mix.specs.size());

    // Scatter-gather latency over the mix.
    std::vector<double> ms;
    std::size_t pruned_contacts = 0, total_reports = 0;
    for (int it = 0; it < kIterations; ++it) {
      for (const service::QuerySpec& spec : mix.specs) {
        const auto tq = std::chrono::steady_clock::now();
        const service::RemoteResult res = f.fed->run(spec);
        ms.push_back(seconds_since(tq) * 1e3);
        for (const auto& s : res.shards) {
          ++total_reports;
          if (s.outcome == service::RemoteShardReport::Outcome::kPruned) {
            ++pruned_contacts;
          }
        }
      }
    }
    std::sort(ms.begin(), ms.end());
    const double p50 = quantile(ms, 0.5);
    const double p99 = quantile(ms, 0.99);
    const double prune_rate =
        total_reports > 0
            ? static_cast<double>(pruned_contacts) / static_cast<double>(total_reports)
            : 0.0;

    // Wire cost: serialized partial bytes shipped back for one mix pass.
    std::size_t wire_bytes = 0;
    for (const service::QuerySpec& spec : mix.specs) {
      for (const auto& ex : f.executors) {
        const federation::wire::PartialMsg partial = ex->execute(spec, 0, "job_id");
        wire_bytes += federation::wire::pack_partial(partial).size();
      }
    }

    const StageMedians st = stage_medians(f, mix);

    std::printf("[scatter] %zu shards: p50 %8.3f ms  p99 %8.3f ms  "
                "(vs baseline p50 %.2fx, prune rate %.2f, %zu partial bytes/pass)\n",
                nshards, p50, p99, p50 > 0 ? base_p50 / p50 : 0.0, prune_rate,
                wire_bytes);
    std::printf("[stages]  %zu shards: execute %.3f ms  pack+frame %.3f ms  unpack %.3f ms  "
                "merge %.3f ms (medians per query, summed over contacted shards)\n",
                nshards, st.execute_ms, st.pack_frame_ms, st.unpack_ms, st.merge_ms);
    json.record("scatter_gather")
        .num("shards", static_cast<double>(nshards))
        .num("build_s", build_s)
        .num("p50_ms", p50)
        .num("p99_ms", p99)
        .num("p50_vs_baseline", base_p50 > 0 ? p50 / base_p50 : 0.0)
        .num("prune_rate", prune_rate)
        .num("partial_bytes_per_pass", static_cast<double>(wire_bytes))
        .num("execute_ms_p50", st.execute_ms)
        .num("pack_frame_ms_p50", st.pack_frame_ms)
        .num("unpack_ms_p50", st.unpack_ms)
        .num("merge_ms_p50", st.merge_ms);
  }

  json.write("BENCH_federation.json");
  std::printf("[done] federated answers bit-identical at every shard count\n");
  return 0;
}
