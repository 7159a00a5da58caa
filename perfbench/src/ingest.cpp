// `ingest`: writes alongside reads. A Ranger-preset cluster is simulated and
// its TACC_Stats files collected (both count in set-up); the raw data is
// then appended one day at a time into an Archive bound to a Service, with
// the default durable flush policy, while one reader issues dashboard
// requests in an open loop at a low fixed rate. Each append runs ingest,
// rollup maintenance, commit and republish, and invalidates the cache.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "accounting/accounting.h"
#include "archive/archive.h"
#include "archive/partition.h"
#include "archive/tables.h"
#include "bench.h"
#include "common/strings.h"
#include "etl/ingest.h"
#include "facility/engine.h"
#include "facility/scheduler.h"
#include "facility/workload.h"
#include "lariat/lariat.h"
#include "taccstats/agent.h"

namespace perfbench {

namespace {

/// 31 Ranger nodes; a daily append takes ~0.7 s on a 4-core host. The
/// simulated span is scaled to the run length, one appended day per two
/// seconds, so the appends fill 80 % of the window with room for the
/// reader. Set-up is short, so its median is taken over more repetitions.
constexpr double kNodeScale = 0.016;
constexpr double kSecondsPerDay = 2.0;
constexpr int kSetups = 5;
constexpr double kReaderRate = 200.0;
constexpr int kReaderCache = 256;  // result-cache entries, as the dashboard's
constexpr std::uint64_t kSimSeed = 2013;

/// Days simulated for a run of `o.seconds`: day 0 bootstraps the archive,
/// each later day is one append.
std::int64_t span_days(const Options& o) {
  return std::clamp<std::int64_t>(std::llround(o.seconds / kSecondsPerDay) + 1, 4, 31);
}

struct Raw {
  std::int64_t days = 0;
  facility::ClusterSpec spec;
  std::vector<facility::AppSignature> catalogue;
  std::unique_ptr<facility::UserPopulation> population;
  std::vector<taccstats::RawFile> files;
  std::vector<accounting::AccountingRecord> acct;
  std::vector<lariat::LariatRecord> lariat;
  double simulate_s = 0.0;
  double collect_s = 0.0;
  double raw_mb = 0.0;
};

/// Simulates the cluster and collects its raw files (the set-up).
Raw simulate(const Options& o) {
  Raw raw;
  raw.days = span_days(o);
  const auto t0 = Clock::now();
  raw.spec = facility::scaled(facility::ranger(), kNodeScale);
  raw.catalogue = facility::standard_catalogue();
  raw.population = std::make_unique<facility::UserPopulation>(
      facility::UserPopulation::generate(raw.spec, raw.catalogue, o.seed ^ kSimSeed));
  facility::WorkloadConfig wl;
  wl.start = 0;
  wl.span = raw.days * common::kDay;
  wl.seed = o.seed ^ kSimSeed;
  auto requests = facility::generate_workload(raw.spec, raw.catalogue, *raw.population, wl);
  auto execs = facility::Scheduler::run(raw.spec, std::move(requests), {});
  facility::FacilityEngine engine(raw.spec, std::move(execs), {}, 0, wl.span, wl.seed);
  raw.simulate_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const auto outputs = taccstats::run_all_agents(engine, taccstats::AgentConfig{}, o.nproc);
  for (const auto& out : outputs) raw.files.insert(raw.files.end(), out.files.begin(), out.files.end());
  raw.collect_s = seconds_since(t1);
  raw.acct = accounting::from_executions(raw.spec, *raw.population, engine.executions());
  raw.lariat = lariat::from_executions(raw.spec, raw.catalogue, *raw.population, engine.executions());
  std::uint64_t bytes = 0;
  for (const auto& f : raw.files) bytes += f.content.size();
  raw.raw_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return raw;
}

etl::IngestConfig ingest_config(const Raw& raw, const Options& o) {
  etl::IngestConfig cfg;
  cfg.start = 0;
  cfg.span = raw.days * common::kDay;
  cfg.cluster = raw.spec.name;
  cfg.threads = o.nproc;
  cfg.bucket = taccstats::AgentConfig{}.interval;
  cfg.min_job_seconds = taccstats::AgentConfig{}.interval;
  return cfg;
}

/// The reader's literal domains: the population's users and their projects
/// by activity, the catalogue's apps by popularity.
Corpus domains(const Raw& raw) {
  Corpus c;
  std::vector<std::size_t> order(raw.population->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto& w = raw.population->activity_weights();
  std::stable_sort(order.begin(), order.end(), [&w](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  for (const std::size_t i : order) {
    const facility::User& u = raw.population->user(i);
    c.users.push_back(u.name);
    if (std::find(c.projects.begin(), c.projects.end(), u.project) == c.projects.end()) {
      c.projects.push_back(u.project);
    }
  }
  std::vector<const facility::AppSignature*> apps;
  for (const auto& a : raw.catalogue) apps.push_back(&a);
  std::stable_sort(apps.begin(), apps.end(),
                   [](const auto* a, const auto* b) { return a->popularity > b->popularity; });
  for (const auto* a : apps) c.apps.push_back(a->name);
  c.clusters = {raw.spec.name};
  c.first_day = 0;
  c.last_day = raw.days - 1;
  return c;
}

struct Pass {
  Phase reader;
  std::vector<double> append_s, freshness_s;
  std::vector<archive::AppendStats> stats;
  std::uint64_t fsyncs = 0, bytes_written = 0;
};

/// One write pass: bootstrap day 0, bind, then append days 1.. while the
/// reader runs, pacing appends evenly over the window.
Pass write_pass(const Raw& raw, const Options& o, const std::string& dir, const NextRequest& next,
                double window_s, Tracer* tr, std::atomic<std::uint64_t>& ids,
                std::unique_ptr<service::Service>& svc_out,
                std::unique_ptr<archive::Archive>& ar_out,
                std::unique_ptr<common::CountingIoPolicy>& io_out) {
  std::filesystem::remove_all(dir);
  Pass p;
  const etl::IngestConfig cfg = ingest_config(raw, o);
  const auto psm = etl::project_science_map(*raw.population);
  const std::string context = "perfbench-ingest";
  io_out = std::make_unique<common::CountingIoPolicy>();
  ar_out = std::make_unique<archive::Archive>(dir, 1, io_out.get());
  archive::Archive& ar = *ar_out;
  const auto append = [&](std::int64_t day) {
    const std::uint64_t req = ++ids;
    const auto t0 = Clock::now();
    Scope s(tr, "archive.Archive::append", 0, req);
    etl::IngestConfig upto = cfg;
    upto.span = (day + 1) * common::kDay;
    p.stats.push_back(ar.append(upto, raw.files, raw.acct, raw.lariat, raw.catalogue, psm, context,
                                (day + 1) * common::kDay));
    p.append_s.push_back(seconds_since(t0));
    return t0;
  };
  (void)append(0);
  svc_out = make_service(o, /*rollups=*/true, kReaderCache);
  svc_out->bind_archive(ar);
  service::Service& svc = *svc_out;

  std::thread reader([&] { p.reader = open_loop(svc, next, kReaderRate, window_s, o.seed, tr, ids); });
  const auto start = Clock::now();
  std::vector<std::pair<Clock::time_point, std::uint64_t>> epochs;  // append start, new epoch
  for (std::int64_t d = 1; d < raw.days; ++d) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(
                                                  window_s * 0.8 * static_cast<double>(d - 1) /
                                                  static_cast<double>(raw.days - 1))));
    const auto t0 = append(d);
    epochs.emplace_back(t0, svc.epoch());
  }
  reader.join();
  for (const auto& [t0, epoch] : epochs) {
    Clock::time_point first = Clock::time_point::max();
    for (const Answer& a : p.reader.answers) {
      if (a.resp->status == service::Status::kOk && a.resp->epoch >= epoch) first = std::min(first, a.done);
    }
    if (first != Clock::time_point::max()) p.freshness_s.push_back(std::chrono::duration<double>(first - t0).count());
  }
  p.fsyncs = io_out->count(common::IoOp::kFsync) + io_out->count(common::IoOp::kFsyncDir);
  p.bytes_written = io_out->bytes_written();
  return p;
}

}  // namespace

Result run_ingest(const Options& o) {
  Result r;
  std::atomic<std::uint64_t> ids{0};
  std::vector<double> setup;
  Raw raw;
  std::unique_ptr<RssPeak> rss;
  const int reps = o.trace ? 1 : kSetups;
  for (int i = 0; i < reps; ++i) {
    raw = Raw{};
    if (i == reps - 1) rss = std::make_unique<RssPeak>();
    const auto t0 = Clock::now();
    raw = simulate(o);
    setup.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup), "s");
  std::fprintf(stderr, "[setup] %zu nodes, %lld days, %zu raw files, %.1f MB raw TACC_Stats\n",
               raw.spec.node_count, static_cast<long long>(raw.days), raw.files.size(), raw.raw_mb);

  const Corpus dom = domains(raw);
  const auto mix = std::make_shared<DashboardMix>(dom);
  const NextRequest next = [mix](common::RngStream& g, std::uint64_t i) { return mix->next(g, i); };
  const std::string dir = o.out_dir + "/ingest-" + std::to_string(o.seed) + "-" + std::to_string(::getpid());
  const double window_s = o.seconds;

  std::unique_ptr<service::Service> svc;
  std::unique_ptr<archive::Archive> ar;
  std::unique_ptr<common::CountingIoPolicy> io;
  const Pass pass = write_pass(raw, o, dir, next, window_s, nullptr, ids, svc, ar, io);
  const double append_total = sum(pass.append_s);
  Phase traced_reader;
  Result layers;
  if (!o.trace) {
    latency_metrics(pass.reader, r);
    r.set("freshness_s", median(pass.freshness_s), "s");
    r.set("ingest_mb_s", raw.raw_mb / append_total, "MB/s");
    r.set("peak_rss_mb", rss->mb(), "MB");
  } else {
    Tracer tr;
    std::unique_ptr<service::Service> tsvc;
    std::unique_ptr<archive::Archive> tar;
    std::unique_ptr<common::CountingIoPolicy> tio;
    const Pass tp = write_pass(raw, o, dir + "-traced", next, window_s, &tr, ids, tsvc, tar, tio);
    traced_reader = tp.reader;
    const service::ServiceMetrics m = tsvc->metrics();
    tsvc.reset();
    tar.reset();
    std::filesystem::remove_all(dir + "-traced");
    layers.set("trace.overhead_ms", median(tp.reader.latency_ms) - median(pass.reader.latency_ms), "ms");
    layers.set("client.latency_p90_ms", quantile(pass.reader.latency_ms, 0.90), "ms");
    layers.set("client.latency_p99_ms", quantile(pass.reader.latency_ms, 0.99), "ms");
    layers.set("facility.simulate_s", raw.simulate_s, "s");
    layers.set("taccstats.collect_s", raw.collect_s, "s");
    layers.set("taccstats.raw_mb", raw.raw_mb, "MB");
    layers.set("archive.append_s", median(tr.duration_ms("archive.Archive::append")) / 1e3, "s");
    double read_back = 0, cells = 0;
    for (const auto& st : tp.stats) {
      read_back += static_cast<double>(st.rollup_days_read_back);
      cells += static_cast<double>(st.rollup_cells_written);
    }
    const auto per_append = static_cast<double>(tp.stats.size());
    layers.set("archive.rollup_days_read_back", read_back / per_append, "count");
    layers.set("archive.rollup_cells_written", cells / per_append, "count");
    layers.set("archive.fsyncs", static_cast<double>(tp.fsyncs) / per_append, "count");
    layers.set("archive.bytes_written_per_raw_byte",
               static_cast<double>(tp.bytes_written) / (raw.raw_mb * 1024.0 * 1024.0), "ratio");

    // Archive read side and the partition codec, on the final archive.
    auto t0 = Clock::now();
    archive::LoadResult loaded;
    {
      Scope s(&tr, "archive.Archive::load", 0, ++ids);
      loaded = ar->load();
    }
    layers.set("archive.load_s", seconds_since(t0), "s");
    const warehouse::Table jobs = published_jobs_table(loaded.result.jobs);
    const double table_mb = jobs_table_mb(jobs.rows());
    std::vector<double> enc, dec;
    for (int rep = 0; rep < 5; ++rep) {
      t0 = Clock::now();
      std::string bytes;
      {
        Scope s(&tr, "archive.encode_partition", 0, ++ids);
        bytes = archive::encode_partition(jobs, 0);
      }
      enc.push_back(table_mb / seconds_since(t0));
      t0 = Clock::now();
      {
        Scope s(&tr, "archive.decode_partition", 0, ++ids);
        (void)archive::decode_partition(bytes);
      }
      dec.push_back(table_mb / seconds_since(t0));
    }
    layers.set("archive.encode_mb_s", median(enc), "MB/s");
    layers.set("archive.decode_mb_s", median(dec), "MB/s");

    // Reader-side layers on the final data.
    std::vector<std::string> texts;
    for (const Answer& a : tp.reader.answers) {
      if (texts.size() < 100 && a.resp->status == service::Status::kOk &&
          std::find(texts.begin(), texts.end(), a.resp->canonical) == texts.end()) {
        texts.push_back(a.resp->canonical);
      }
    }
    const auto tb = Clock::now();
    const warehouse::rollup::RollupSet rollups = warehouse::rollup::build_from_table(jobs);
    layers.set("rollup.build_s", seconds_since(tb), "s");
    layers.set("rollup.cells", static_cast<double>(rollups.cells()), "count");
    LayerStats ls;
    replay_layers(texts, jobs, &rollups, loaded.result.jobs, 0, o.seconds * kReplayShare, tr, ids, ls);
    layer_metrics(ls, m, tp.reader.answers, layers);
    std::vector<double> late;
    for (const Answer& a : tp.reader.answers) late.push_back(a.late_ms);
    layers.set("client.generator_late_ms_p99", quantile(late, 0.99), "ms");
    tr.write(o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json");
  }

  // Gate: answers on the final epoch equal a direct ingest of the same span,
  // published through a raw-only, cache-less reference service.
  r.attempted += pass.append_s.size();
  count_answers(pass.reader, r);
  count_answers(traced_reader, r);
  const auto t_etl = Clock::now();
  etl::IngestResult direct = etl::IngestPipeline(ingest_config(raw, o))
                                 .run(raw.files, raw.acct, raw.lariat, raw.catalogue,
                                      etl::project_science_map(*raw.population));
  const double etl_s = seconds_since(t_etl);
  if (o.trace) layers.set("etl.ingest_mb_s", raw.raw_mb / etl_s, "MB/s");
  const auto ref = make_service(o, /*rollups=*/false, /*cache=*/0);
  ref->publish_jobs(std::move(direct.jobs));
  const std::uint64_t final_epoch = svc->epoch();
  std::vector<const Answer*> final_answers;
  for (const Answer& a : pass.reader.answers) {
    if (a.resp->epoch == final_epoch) final_answers.push_back(&a);
  }
  if (final_answers.empty()) r.fail("no reader answer on the final epoch");
  gate_against(*ref, final_answers, o.nproc, r);
  svc.reset();
  ar.reset();
  std::filesystem::remove_all(dir);
  std::fprintf(stderr, "[ingest] %zu appends, %.2f s appending, etl direct %.2f s\n",
               pass.append_s.size(), append_total, etl_s);
  std::string appends, fresh;
  for (const double t : pass.append_s) appends += common::strprintf(" %.3f", t);
  for (const double t : pass.freshness_s) fresh += common::strprintf(" %.3f", t);
  std::fprintf(stderr, "[ingest] append s:%s\n[ingest] fresh s:%s\n", appends.c_str(), fresh.c_str());
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
