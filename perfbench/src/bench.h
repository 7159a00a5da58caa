// Shared pieces of the repository benchmark: run options, the result record
// every workload fills, the paper-shaped corpus, request mixes, load loops,
// the correctness gate and the span tracer.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "etl/job_summary.h"
#include "service/service.h"
#include "warehouse/rollup.h"
#include "warehouse/table.h"

namespace perfbench {

using namespace supremm;
using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Share of --seconds an open loop runs unmeasured first, to fill caches.
inline constexpr double kWarmShare = 0.1;
/// Share of --seconds a traced run spends replaying requests through the
/// layers' public functions.
inline constexpr double kReplayShare = 0.3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // trace files and the ingest archive
  std::size_t nproc = 4;               // client threads / connections / workers
};

/// What one workload run reports. `metrics` holds the end-to-end metrics of
/// an untraced run, or the per-layer metrics of a traced one.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few gate failures, for stderr
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(std::string why) {
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

// ---------------------------------------------------------------------------
// Statistics helpers

/// Quantile q of `v` by the Harrell-Davis estimator (nearest rank above
/// 50,000 samples); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double sum(const std::vector<double>& v);
/// Peak resident set size over an interval, in MB, sampled every 2 ms from
/// /proc/self/statm. Construction first returns freed heap to the system,
/// so a sampler started before a run's last set-up measures that set-up and
/// the phases after it, not what earlier repetitions left behind.
class RssPeak {
 public:
  RssPeak();
  ~RssPeak();
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;
  [[nodiscard]] double mb() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;  // last: it reads the members above
};

// ---------------------------------------------------------------------------
// Span tracer. Spans are kept in memory and written out once at the end; a
// span's self time is its duration minus the union of its children's
// intervals (clipped to it).

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // spans of one request share this id
  std::string name;
  double t0_us = 0.0;        // microseconds since the tracer started
  double t1_us = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Opens a span and returns its id.
  std::uint64_t begin(std::string name, std::uint64_t parent, std::uint64_t request);
  void end(std::uint64_t id);
  /// Records a closed span from instants measured elsewhere.
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t request,
                    Clock::time_point t0, Clock::time_point t1);
  /// Self time (ms) of every closed span named `name`.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  /// Duration (ms) of every closed span named `name`.
  [[nodiscard]] std::vector<double> duration_ms(const std::string& name) const;
  /// Writes all spans as a JSON array of objects.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index = id - 1
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(Tracer* tr, std::string name, std::uint64_t parent, std::uint64_t request)
      : tr_(tr), id_(tr != nullptr ? tr->begin(std::move(name), parent, request) : 0) {}
  ~Scope() {
    if (tr_ != nullptr) tr_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tr_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Paper-shaped corpus: Ranger (2000 users) and Lonestar4 (1400 users) job
// summaries over ~600 days, split 521,010 : 337,011 between the clusters.

inline constexpr std::size_t kPaperRangerJobs = 521'010;
inline constexpr std::size_t kPaperLonestarJobs = 337'011;
inline constexpr std::int64_t kSpanDays = 600;

struct Corpus {
  std::vector<etl::JobSummary> jobs;  // ascending id == ascending submit
  /// Literal domains, most active first (the order Zipf draws rank over).
  std::vector<std::string> users, apps, projects, clusters;
  std::int64_t first_day = 0;  // end-day range of the jobs
  std::int64_t last_day = 0;
};

/// `scale` multiplies the paper's job counts (1.0 = 858,021 jobs).
Corpus make_corpus(double scale, std::uint64_t seed);

/// Zipf(s) rank sampler over [0, n).
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s);
  std::size_t operator()(common::RngStream& g) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Request mixes

/// Portal dashboard mix: standing rollup-servable report shapes over
/// date ranges the user picks, xdmod `report` requests and about 1 in 8
/// raw-only metric-range shapes, with filter literals drawn Zipf from the
/// population.
class DashboardMix {
 public:
  explicit DashboardMix(const Corpus& c);
  std::string next(common::RngStream& g, std::uint64_t i) const;

 private:
  const Corpus* c_;
  ZipfPicker users_, apps_, projects_;
};

/// Support-staff triage: metric-range predicates with fresh literals on
/// every request, group-bys on user/app/project/user+app, `threads n`.
std::string adhoc_request(common::RngStream& g, std::uint64_t i, std::size_t threads);

/// Federated mix: 3 in 5 adhoc shapes, 2 in 5 dashboard shapes (most
/// cluster- or time-filtered, so the catalog prunes); `query` requests only.
class FederatedMix {
 public:
  explicit FederatedMix(const Corpus& c);
  std::string next(common::RngStream& g, std::uint64_t i) const;

 private:
  const Corpus* c_;
  ZipfPicker users_, apps_;
};

// ---------------------------------------------------------------------------
// Load loops against a Service

/// One answered request as the client saw it.
struct Answer {
  std::string text;
  service::ResponsePtr resp;
  double latency_ms = 0.0;  // from due (open loop) or send (closed loop)
  double late_ms = 0.0;     // open loop: how late the generator sent it
  Clock::time_point done{};  // when the answer was complete
};

/// Request i of a stream (its shape follows i, its literals the rng).
using NextRequest = std::function<std::string(common::RngStream&, std::uint64_t)>;

/// One load phase. A closed loop keeps the first Answer to each distinct
/// text and checks every repeat against it as it arrives; every request's
/// latency is kept.
struct Phase {
  std::vector<Answer> answers;
  std::vector<double> latency_ms;
  std::vector<std::string> mismatches;  // repeats that differed
  double seconds = 0.0;
  /// Closed loop: `seconds`. Open loop: from the start to the last answer,
  /// which outgrows `seconds` when a backlog builds.
  double busy_s = 0.0;
  /// Closed loop: each request's completion, in seconds from the start.
  std::vector<double> done_s;
};

/// Requests completed per second: an open loop's count over its busy time;
/// a closed loop's median rate over four equal windows.
double completion_rate(const Phase& p);

/// Open loop: Poisson arrivals at `rate_qps` for `seconds`, one generator
/// thread submitting without waiting. Latency is timed from each request's
/// due time.
Phase open_loop(service::Service& svc, const NextRequest& next, double rate_qps, double seconds,
                std::uint64_t seed, Tracer* tr, std::atomic<std::uint64_t>& req_ids);

/// Closed loop: one client sends a request, waits for its answer, and
/// repeats for `seconds`. Latency is timed from the send.
Phase closed_loop(service::Service& svc, const NextRequest& next, double seconds,
                  std::uint64_t seed, Tracer* tr, std::atomic<std::uint64_t>& req_ids);

/// Every answer of the given phases, for the gate.
std::vector<const Answer*> pointers(std::initializer_list<const Phase*> phases);

/// Counts attempted/failed over a phase (non-OK statuses fail).
void count_answers(const Phase& p, Result& r);

/// Latency median and throughput of the measured phase.
void latency_metrics(const Phase& main, Result& r);

/// Gate: every OK answer equals the reference service's answer to the same
/// canonical text (computed once per distinct text, on `ref_workers`
/// threads). Mismatches fail the run.
void gate_against(service::Service& ref, const std::vector<const Answer*>& answers,
                  std::size_t ref_workers, Result& r);

// ---------------------------------------------------------------------------
// Per-layer replay: re-run a sample of answered requests through the
// layers' public functions from outside the service, recording spans.

struct LayerStats {
  std::vector<double> parse_us, compile_us, query_ms, subsume_us, serve_ms,
      collect_ms, fold_ms, report_ms;
  double rows_scanned = 0, rows_out_raw = 0, chunks_total = 0, chunks_pruned = 0,
         query_total_ms = 0;
  double cells_read = 0, rows_out_rollup = 0;
  double threads1_ms = 0, threadsn_ms = 0;  // thread-speedup replays
};

/// A replayed request: its id (shared by its spans) and its parse.
struct Parsed {
  std::uint64_t request_id = 0;
  service::Request request;
};

/// Parses every text under a span of its own before any other replay work:
/// a parse timed right after a parallel query would also pay for the
/// query's threads winding down.
std::vector<Parsed> parse_all(const std::vector<std::string>& texts, Tracer& tr,
                              std::atomic<std::uint64_t>& req_ids);

/// Replays `texts` (in order, until `budget_s` has passed) against `jobs`
/// (augmented, zone-indexed), its rollups and a realm over `corpus`.
/// `speedup_threads` > 1 also times each raw query at 1 and that many
/// threads.
void replay_layers(const std::vector<std::string>& texts, const warehouse::Table& jobs,
                   const warehouse::rollup::RollupSet* rollups,
                   const std::vector<etl::JobSummary>& corpus,
                   std::size_t speedup_threads, double budget_s, Tracer& tr,
                   std::atomic<std::uint64_t>& req_ids, LayerStats& out);

/// Emits the service/warehouse/rollup/xdmod per-layer metrics.
void layer_metrics(const LayerStats& ls, const service::ServiceMetrics& m,
                   const std::vector<Answer>& traced, Result& r);

/// The augmented, zone-indexed jobs table the service publishes for `jobs`.
warehouse::Table published_jobs_table(std::vector<etl::JobSummary> jobs);

/// MB of a jobs table of `rows` rows: 8 bytes a cell (doubles, int64s and
/// dictionary codes alike).
double jobs_table_mb(std::size_t rows);

/// A service with `nproc` workers, an admission queue no run fills, and a
/// deadline no request reaches.
std::unique_ptr<service::Service> make_service(const Options& o, bool rollups, int cache);

/// Every per-layer metric name with its unit, so workloads that do not
/// exercise a layer still report it (as 0).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// ---------------------------------------------------------------------------
// Workloads

Result run_dashboard(const Options& o);
Result run_federated(const Options& o);
Result run_ingest(const Options& o);

}  // namespace perfbench
