// Per-layer replay. The service runs parse, cache, subsume/serve, compile
// and the scan on its worker threads, out of the benchmark's sight; the
// traced run therefore re-runs a sample of the requests it answered through
// the same public functions, from outside, with a span around each call.
#include <algorithm>

#include "archive/tables.h"
#include "bench.h"
#include "service/request.h"
#include "warehouse/partial.h"
#include "xdmod/realm.h"

namespace perfbench {

namespace {

warehouse::rollup::QueryInput rollup_input(const service::QuerySpec& spec) {
  warehouse::rollup::QueryInput in;
  for (const service::Term& t : spec.where) {
    warehouse::rollup::PredInput p;
    switch (t.op) {
      case service::TermOp::kEq: p.op = warehouse::rollup::PredInput::Op::kEq; break;
      case service::TermOp::kGe: p.op = warehouse::rollup::PredInput::Op::kGe; break;
      case service::TermOp::kLe: p.op = warehouse::rollup::PredInput::Op::kLe; break;
      case service::TermOp::kBetween: p.op = warehouse::rollup::PredInput::Op::kBetween; break;
    }
    p.column = t.column;
    p.value = t.value;
    p.lo = t.lo;
    p.hi = t.hi;
    in.where.push_back(std::move(p));
  }
  in.group_by = spec.group_by;
  in.aggs = spec.aggs;
  return in;
}

/// Rows of `jobs` matching the request's terms, in table order (the input
/// partial::collect takes from the scan phase).
std::vector<std::uint32_t> matching_rows(const service::QuerySpec& spec,
                                         const warehouse::Table& jobs) {
  std::vector<warehouse::RowPredicate> preds;
  for (const service::Term& t : spec.where) {
    switch (t.op) {
      case service::TermOp::kEq: preds.push_back(warehouse::eq(t.column, t.value)); break;
      case service::TermOp::kGe: preds.push_back(warehouse::ge(t.column, t.lo)); break;
      case service::TermOp::kLe: preds.push_back(warehouse::le(t.column, t.hi)); break;
      case service::TermOp::kBetween:
        preds.push_back(warehouse::between(t.column, t.lo, t.hi));
        break;
    }
  }
  const warehouse::RowPredicate pred = warehouse::all_of(std::move(preds));
  std::vector<std::uint32_t> rows;
  for (std::size_t r = 0; r < jobs.rows(); ++r) {
    if (pred(jobs, r)) rows.push_back(static_cast<std::uint32_t>(r));
  }
  return rows;
}

}  // namespace

warehouse::Table published_jobs_table(std::vector<etl::JobSummary> jobs) {
  std::sort(jobs.begin(), jobs.end(),
            [](const etl::JobSummary& a, const etl::JobSummary& b) { return a.id < b.id; });
  warehouse::Table t = archive::jobs_table(jobs);
  warehouse::rollup::augment_jobs_table(t);
  t.rebuild_zone_index(archive::kDefaultChunkRows);
  return t;
}

double jobs_table_mb(std::size_t rows) {
  static const std::size_t cols =
      archive::jobs_table(std::vector<etl::JobSummary>(1)).columns().size();
  return static_cast<double>(rows * cols * 8) / (1024.0 * 1024.0);
}

std::unique_ptr<service::Service> make_service(const Options& o, bool rollups, int cache) {
  service::ServiceConfig cfg;
  cfg.workers = static_cast<int>(o.nproc);
  cfg.queue_limit = 100'000;
  cfg.cache_entries = cache;
  cfg.rollups = rollups;
  cfg.default_deadline_ms = 600'000;
  return std::make_unique<service::Service>(cfg);
}

std::vector<Parsed> parse_all(const std::vector<std::string>& texts, Tracer& tr,
                              std::atomic<std::uint64_t>& req_ids) {
  std::vector<Parsed> out;
  out.reserve(texts.size());
  for (const std::string& text : texts) {
    Parsed p;
    p.request_id = ++req_ids;
    Scope s(&tr, "service.parse_request", 0, p.request_id);
    p.request = service::parse_request(text);
    out.push_back(std::move(p));
  }
  return out;
}

void replay_layers(const std::vector<std::string>& texts, const warehouse::Table& jobs,
                   const warehouse::rollup::RollupSet* rollups,
                   const std::vector<etl::JobSummary>& corpus, std::size_t speedup_threads,
                   double budget_s, Tracer& tr, std::atomic<std::uint64_t>& req_ids,
                   LayerStats& out) {
  const xdmod::JobsRealm realm{std::span<const etl::JobSummary>(corpus)};
  const auto start = Clock::now();
  for (const Parsed& p : parse_all(texts, tr, req_ids)) {
    if (seconds_since(start) > budget_s) break;
    const std::uint64_t req = p.request_id;
    const service::Request& rq = p.request;
    Scope root(&tr, "replay", 0, req);
    if (rq.kind == service::Request::Kind::kReport) {
      Scope s(&tr, "xdmod.JobsRealm::report", root.id(), req);
      (void)realm.report(rq.report);
      continue;
    }
    const service::QuerySpec& spec = rq.query;
    std::optional<warehouse::rollup::Plan> plan;
    if (rollups != nullptr) {
      Scope s(&tr, "rollup.subsume", root.id(), req);
      plan = warehouse::rollup::subsume(rollup_input(spec));
    }
    if (plan) {
      warehouse::QueryStats st;
      std::size_t rows_out = 0;
      {
        Scope s(&tr, "rollup.serve", root.id(), req);
        rows_out = warehouse::rollup::serve(*rollups, *plan, &st).rows();
      }
      out.cells_read += static_cast<double>(st.rows_scanned);
      out.rows_out_rollup += static_cast<double>(rows_out);
      continue;
    }
    std::optional<warehouse::Query> q;
    {
      Scope s(&tr, "service.compile", root.id(), req);
      q.emplace(service::compile(spec, jobs));
    }
    std::size_t rows_out = 0;
    {
      Scope s(&tr, "warehouse.Query::run", root.id(), req);
      rows_out = q->run().rows();
    }
    const warehouse::QueryStats& st = q->stats();
    out.rows_scanned += static_cast<double>(st.rows_scanned);
    out.rows_out_raw += static_cast<double>(rows_out);
    out.chunks_total += static_cast<double>(st.chunks_total);
    out.chunks_pruned += static_cast<double>(st.chunks_pruned);

    const std::vector<std::uint32_t> rows = matching_rows(spec, jobs);
    warehouse::partial::Collected col;
    {
      Scope s(&tr, "warehouse.partial::collect", root.id(), req);
      col = warehouse::partial::collect(jobs, spec.group_by, spec.aggs, rows.data(), rows.size(),
                                        std::string(), nullptr);
    }
    {
      Scope s(&tr, "warehouse.partial::fold_groups", root.id(), req);
      (void)warehouse::partial::fold_groups(col);
    }

    if (speedup_threads > 1) {
      // Same query at 1 and n threads, interleaved per request so a slow
      // phase of the host hits both legs alike.
      for (const std::size_t n : {std::size_t{1}, speedup_threads}) {
        service::QuerySpec s1 = spec;
        s1.threads = n;
        warehouse::Query qn = service::compile(s1, jobs);
        const auto t0 = Clock::now();
        (void)qn.run();
        (n == 1 ? out.threads1_ms : out.threadsn_ms) += ms_between(t0, Clock::now());
      }
    }
  }
  out.parse_us = tr.self_ms("service.parse_request");
  out.compile_us = tr.self_ms("service.compile");
  for (auto* v : {&out.parse_us, &out.compile_us}) {
    for (double& x : *v) x *= 1e3;
  }
  out.query_ms = tr.self_ms("warehouse.Query::run");
  out.query_total_ms = sum(tr.duration_ms("warehouse.Query::run"));
  out.subsume_us = tr.self_ms("rollup.subsume");
  for (double& x : out.subsume_us) x *= 1e3;
  out.serve_ms = tr.self_ms("rollup.serve");
  out.collect_ms = tr.self_ms("warehouse.partial::collect");
  out.fold_ms = tr.self_ms("warehouse.partial::fold_groups");
  out.report_ms = tr.self_ms("xdmod.JobsRealm::report");
}

void layer_metrics(const LayerStats& ls, const service::ServiceMetrics& m,
                   const std::vector<Answer>& traced, Result& r) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.set("service.cache_hit_ratio",
        ratio(static_cast<double>(m.cache_hits), static_cast<double>(m.cache_hits + m.cache_misses)),
        "ratio");
  r.set("service.parse_us", median(ls.parse_us), "us");
  std::vector<double> queue, exec;
  for (const Answer& a : traced) {
    if (a.resp == nullptr || a.resp->cache_hit) continue;
    queue.push_back(a.resp->queue_ms);
    exec.push_back(a.resp->exec_ms);
  }
  r.set("service.queue_wait_ms_p50", quantile(queue, 0.5), "ms");
  r.set("service.queue_wait_ms_p99", quantile(queue, 0.99), "ms");
  r.set("service.exec_ms", median(exec), "ms");
  r.set("warehouse.compile_us", median(ls.compile_us), "us");
  r.set("warehouse.query_ms", median(ls.query_ms), "ms");
  r.set("warehouse.rows_per_s", ratio(ls.rows_scanned, ls.query_total_ms / 1e3), "1/s");
  r.set("warehouse.chunks_pruned_ratio", ratio(ls.chunks_pruned, ls.chunks_total), "ratio");
  r.set("warehouse.rows_scanned_per_row_out", ratio(ls.rows_scanned, ls.rows_out_raw), "ratio");
  r.set("warehouse.partial.collect_ms", median(ls.collect_ms), "ms");
  r.set("warehouse.partial.fold_ms", median(ls.fold_ms), "ms");
  r.set("warehouse.thread_speedup", ratio(ls.threads1_ms, ls.threadsn_ms), "x");
  r.set("rollup.hit_ratio",
        ratio(static_cast<double>(m.rollup_hits), static_cast<double>(m.rollup_hits + m.rollup_misses)),
        "ratio");
  r.set("rollup.subsume_us", median(ls.subsume_us), "us");
  r.set("rollup.cells_read_per_row_out", ratio(ls.cells_read, ls.rows_out_rollup), "ratio");
  r.set("rollup.serve_ms", median(ls.serve_ms), "ms");
  r.set("xdmod.report_ms", median(ls.report_ms), "ms");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"service.cache_hit_ratio", "ratio"},
      {"service.parse_us", "us"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.exec_ms", "ms"},
      {"warehouse.compile_us", "us"},
      {"warehouse.query_ms", "ms"},
      {"warehouse.rows_per_s", "1/s"},
      {"warehouse.chunks_pruned_ratio", "ratio"},
      {"warehouse.rows_scanned_per_row_out", "ratio"},
      {"warehouse.partial.collect_ms", "ms"},
      {"warehouse.partial.fold_ms", "ms"},
      {"warehouse.thread_speedup", "x"},
      {"rollup.hit_ratio", "ratio"},
      {"rollup.subsume_us", "us"},
      {"rollup.cells_read_per_row_out", "ratio"},
      {"rollup.serve_ms", "ms"},
      {"rollup.cells", "count"},
      {"rollup.build_s", "s"},
      {"xdmod.report_ms", "ms"},
      {"archive.append_s", "s"},
      {"archive.rollup_days_read_back", "count"},
      {"archive.rollup_cells_written", "count"},
      {"archive.encode_mb_s", "MB/s"},
      {"archive.decode_mb_s", "MB/s"},
      {"archive.load_s", "s"},
      {"archive.fsyncs", "count"},
      {"archive.bytes_written_per_raw_byte", "ratio"},
      {"etl.ingest_mb_s", "MB/s"},
      {"taccstats.collect_s", "s"},
      {"taccstats.raw_mb", "MB"},
      {"facility.simulate_s", "s"},
      {"federation.prune_ratio", "ratio"},
      {"federation.shard_ms", "ms"},
      {"federation.straggler_ratio", "ratio"},
      {"federation.partial_bytes", "bytes"},
      {"federation.wire_encode_ms", "ms"},
      {"federation.wire_decode_ms", "ms"},
      {"federation.merge_ms", "ms"},
      {"federation.transport_ms", "ms"},
      {"client.latency_p90_ms", "ms"},
      {"client.latency_p99_ms", "ms"},
      {"client.generator_late_ms_p99", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return names;
}

}  // namespace perfbench
