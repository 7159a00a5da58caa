// Load loops, statistics, the span tracer and the answer gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <unistd.h>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "stats/special.h"
#include "testkit/oracle.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n > 50'000) {
    // Nearest rank; at this size it agrees with the smoothed estimate.
    const double rank = std::ceil(q * static_cast<double>(n));
    return v[static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) - 1];
  }
  // Harrell-Davis: a Beta-weighted mean of all order statistics. A single
  // order statistic jumps when a few samples cross between the modes of a
  // multimodal latency distribution (cache hit vs miss); this does not.
  const double a = q * static_cast<double>(n + 1);
  const double b = (1.0 - q) * static_cast<double>(n + 1);
  double est = 0.0, prev = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double cdf = stats::incomplete_beta(a, b, static_cast<double>(i) / static_cast<double>(n));
    est += (cdf - prev) * v[i - 1];
    prev = cdf;
  }
  return est;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

namespace {
long rss_pages() {
  std::ifstream in("/proc/self/statm");
  long size = 0, resident = 0;
  in >> size >> resident;
  return resident;
}
}  // namespace

RssPeak::RssPeak() {
  ::malloc_trim(0);
  peak_pages_ = rss_pages();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const long now = rss_pages();
      if (now > peak_pages_.load()) peak_pages_.store(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssPeak::~RssPeak() {
  stop_.store(true);
  thread_.join();
}

double RssPeak::mb() const {
  const long pages = std::max(peak_pages_.load(), rss_pages());
  return static_cast<double>(pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- tracer ----------------------------------------------------------------

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent, std::uint64_t request) {
  const double t = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  std::lock_guard lock(mu_);
  spans_.push_back(Span{spans_.size() + 1, parent, request, std::move(name), t, -1.0});
  return spans_.size();
}

std::uint64_t Tracer::add(std::string name, std::uint64_t parent, std::uint64_t request,
                          Clock::time_point t0, Clock::time_point t1) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::lock_guard lock(mu_);
  spans_.push_back(Span{spans_.size() + 1, parent, request, std::move(name), us(t0), us(t1)});
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  const double t = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  std::lock_guard lock(mu_);
  spans_[id - 1].t1_us = t;
}

std::vector<double> Tracer::duration_ms(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.t1_us >= 0) out.push_back((s.t1_us - s.t0_us) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.t1_us >= 0) children[s.parent].emplace_back(s.t0_us, s.t1_us);
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name || s.t1_us < 0) continue;
    auto it = children.find(s.id);
    double covered = 0.0;
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.t0_us);
        hi = std::min(hi, s.t1_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out.push_back((s.t1_us - s.t0_us - covered) / 1e3);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(), s.t0_us, s.t1_us,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "[trace] %zu spans written to %s\n", spans_.size(), path.c_str());
}

// --- loops -------------------------------------------------------------------

namespace {

/// Sleeps until shortly before `due`, then spins: a sleeping thread wakes
/// tens to hundreds of microseconds late on a virtual machine, which would
/// otherwise dominate the latency of sub-millisecond (cached) answers.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

Phase open_loop(service::Service& svc, const NextRequest& next, double rate_qps, double seconds,
                std::uint64_t seed, Tracer* tr, std::atomic<std::uint64_t>& req_ids) {
  // A Poisson process conditioned on its count: rate x seconds arrivals at
  // sorted uniform instants, so every run offers the same load.
  common::RngStream arrivals(seed, "perfbench.arrivals", 0);
  common::RngStream mix(seed, "perfbench.open.mix", 0);
  std::vector<double> due_s(static_cast<std::size_t>(std::llround(rate_qps * seconds)));
  for (double& t : due_s) t = arrivals.uniform(0.0, seconds);
  std::sort(due_s.begin(), due_s.end());
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < due_s.size(); ++i) texts.push_back(next(mix, i));
  struct Sent {
    Clock::time_point due, sent, returned;
    service::Ticket ticket;
  };
  std::vector<Sent> sent(due_s.size());
  service::Session session = svc.session("portal");
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    sent[i].due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(due_s[i]));
    wait_until(sent[i].due);
    sent[i].sent = Clock::now();
    sent[i].ticket = session.submit(texts[i]);
    sent[i].returned = Clock::now();
  }
  Phase out;
  out.seconds = seconds;
  out.busy_s = 0.0;
  out.answers.resize(due_s.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Answer& a = out.answers[i];
    a.text = std::move(texts[i]);
    a.resp = sent[i].ticket.wait();
    a.late_ms = ms_between(sent[i].due, sent[i].sent);
    const double service_ms = std::max(a.resp->total_ms, ms_between(sent[i].sent, sent[i].returned));
    a.latency_ms = a.late_ms + service_ms;
    a.done = sent[i].sent + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(service_ms));
    out.latency_ms.push_back(a.latency_ms);
    out.busy_s = std::max(out.busy_s, std::chrono::duration<double>(a.done - start).count());
    if (tr != nullptr) {
      // Spans are reconstructed from the recorded instants: the request
      // from its due time to completion, the submit call inside it.
      const std::uint64_t req = ++req_ids;
      const std::uint64_t root = tr->add("request", 0, req, sent[i].due, a.done);
      tr->add("service.Session::submit", root, req, sent[i].sent, sent[i].returned);
    }
  }
  return out;
}

Phase closed_loop(service::Service& svc, const NextRequest& next, double seconds,
                  std::uint64_t seed, Tracer* tr, std::atomic<std::uint64_t>& req_ids) {
  Phase out;
  out.seconds = seconds;
  out.busy_s = seconds;
  common::RngStream g(seed, "perfbench.closed.mix", 0);
  service::Session session = svc.session("client");
  // The first answer to each text is kept for the gate; a repeat is
  // compared with it here, so memory stays bounded by distinct texts.
  std::unordered_map<std::string, service::ResponsePtr> first;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
  for (std::uint64_t i = 0; Clock::now() < stop; ++i) {
    Answer a;
    a.text = next(g, i);
    const std::uint64_t req = ++req_ids;
    const std::uint64_t root = tr != nullptr ? tr->begin("request", 0, req) : 0;
    const auto t0 = Clock::now();
    service::Ticket ticket;
    {
      Scope submit(tr, "service.Session::submit", root, req);
      ticket = session.submit(a.text);
    }
    a.resp = ticket.wait();
    a.done = Clock::now();
    if (tr != nullptr) tr->end(root);
    a.latency_ms = ms_between(t0, a.done);
    out.latency_ms.push_back(a.latency_ms);
    out.done_s.push_back(std::chrono::duration<double>(a.done - start).count());
    if (a.resp->table == nullptr) {
      out.answers.push_back(std::move(a));
      continue;
    }
    const auto [it, fresh] = first.emplace(a.resp->canonical, a.resp);
    if (fresh) {
      out.answers.push_back(std::move(a));
    } else if (it->second->table != a.resp->table) {
      if (auto diff = testkit::table_diff(*a.resp->table, *it->second->table)) {
        out.mismatches.push_back("repeat differs from the first answer (" + *diff + "): " + a.text);
      }
    }
  }
  return out;
}

void count_answers(const Phase& p, Result& r) {
  r.attempted += p.latency_ms.size();
  for (const std::string& m : p.mismatches) r.fail(m);
  for (const Answer& a : p.answers) {
    if (a.resp == nullptr || a.resp->status != service::Status::kOk) {
      r.fail("request failed (" +
             std::string(a.resp ? service::to_string(a.resp->status) : "no response") +
             (a.resp ? ": " + a.resp->error : std::string()) + "): " + a.text);
    }
  }
}

double completion_rate(const Phase& p) {
  if (p.done_s.empty()) return static_cast<double>(p.latency_ms.size()) / p.busy_s;
  // Median over four windows: a host stall within one window does not
  // move it.
  constexpr int kWindows = 4;
  const double width = p.seconds / kWindows;
  std::vector<double> counts(kWindows, 0.0);
  for (const double t : p.done_s) {
    const auto w = static_cast<std::size_t>(t / width);
    if (w < counts.size()) counts[w] += 1.0;
  }
  std::sort(counts.begin(), counts.end());
  return (counts[kWindows / 2 - 1] + counts[kWindows / 2]) / 2.0 / width;
}

void latency_metrics(const Phase& main, Result& r) {
  const std::vector<double>& lat = main.latency_ms;
  r.set("latency_p50_ms", quantile(lat, 0.50), "ms");
  r.set("throughput_qps", completion_rate(main), "1/s");
  std::size_t hits = 0;
  for (const Answer& a : main.answers) hits += a.resp != nullptr && a.resp->cache_hit ? 1 : 0;
  std::fprintf(stderr,
               "[latency] %zu samples over %.1fs (%zu cache hits kept): "
               "p90 %.3f ms, p99 %.3f ms\n",
               lat.size(), main.seconds, hits, quantile(lat, 0.90), quantile(lat, 0.99));
}

std::vector<const Answer*> pointers(std::initializer_list<const Phase*> phases) {
  std::vector<const Answer*> out;
  for (const Phase* p : phases) {
    for (const Answer& a : p->answers) out.push_back(&a);
  }
  return out;
}

void gate_against(service::Service& ref, const std::vector<const Answer*>& answers,
                  std::size_t ref_workers, Result& r) {
  std::vector<std::string> distinct;
  std::unordered_map<std::string, service::ResponsePtr> want;
  for (const Answer* a : answers) {
    if (a->resp == nullptr || a->resp->status != service::Status::kOk) continue;
    if (want.emplace(a->resp->canonical, nullptr).second) distinct.push_back(a->resp->canonical);
  }
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  std::mutex mu;
  for (std::size_t w = 0; w < ref_workers; ++w) {
    threads.emplace_back([&, w] {
      service::Session s = ref.session("reference" + std::to_string(w));
      for (std::size_t i = cursor++; i < distinct.size(); i = cursor++) {
        service::ResponsePtr resp = s.run(distinct[i], 600'000);
        std::lock_guard lock(mu);
        want[distinct[i]] = std::move(resp);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::unordered_set<const warehouse::Table*> checked;  // cache hits share tables
  for (const Answer* a : answers) {
    if (a->resp == nullptr || a->resp->status != service::Status::kOk) continue;
    if (!checked.insert(a->resp->table.get()).second) continue;
    const service::ResponsePtr& ref_resp = want[a->resp->canonical];
    if (ref_resp == nullptr || ref_resp->status != service::Status::kOk) {
      r.fail("reference failed: " + a->text);
      continue;
    }
    if (auto diff = testkit::table_diff(*a->resp->table, *ref_resp->table)) {
      r.fail("answer differs from the raw reference (" + *diff + "): " + a->text);
    }
  }
  std::fprintf(stderr, "[gate] %zu answers, %zu distinct, checked against the raw reference\n",
               answers.size(), distinct.size());
}

}  // namespace perfbench
