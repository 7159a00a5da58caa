#include "taccstats/agent.h"

#include <algorithm>

#include "common/pool.h"

namespace supremm::taccstats {

using common::Duration;
using common::TimePoint;
using facility::FacilityEngine;
using facility::Segment;

bool user_programs_counters(facility::JobId id, double prob) noexcept {
  if (prob <= 0.0) return false;
  const std::uint64_t h = common::splitmix64(static_cast<std::uint64_t>(id) ^ 0x75c47ULL);
  return static_cast<double>(h >> 11) / 9007199254740992.0 < prob;
}

NodeAgent::NodeAgent(FacilityEngine& engine, std::size_t node, AgentConfig config)
    : engine_(engine),
      node_(node),
      config_(config),
      registry_(engine.spec().node.arch),
      collectors_(standard_collectors(engine.spec().node.arch)),
      writer_(facility::node_hostname(engine.spec(), node), registry_) {
  if (config_.sar_mode) {
    // SAR has no access to the job-programmed performance counters.
    const std::string perf = SchemaRegistry::perf_type_name(engine.spec().node.arch);
    std::erase_if(collectors_,
                  [&](const std::unique_ptr<Collector>& c) { return c->type() == perf; });
  }
}

void NodeAgent::ensure_file(TimePoint t, NodeOutput& out) {
  const std::int64_t day = common::day_of(t);
  if (!config_.rotate_daily && !out.files.empty()) return;
  if (out.files.empty() || current_day_ != day) {
    RawFile f;
    f.hostname = facility::node_hostname(engine_.spec(), node_);
    f.day = day;
    f.content = writer_.header();
    out.bytes += f.content.size();
    out.files.push_back(std::move(f));
    current_day_ = day;
  }
}

void NodeAgent::take_sample(TimePoint t, std::int64_t job_id, SampleMark mark,
                            NodeOutput& out) {
  engine_.advance_node(node_, t);
  ensure_file(t, out);
  Sample s;
  s.time = t;
  s.job_id = job_id;
  s.mark = mark;
  s.records = collect_all(collectors_, engine_.counters(node_));
  std::string& content = out.files.back().content;
  const std::size_t before = content.size();
  writer_.append_sample(s, content);
  out.bytes += content.size() - before;
  ++out.samples;
}

NodeOutput NodeAgent::run() {
  NodeOutput out;
  const TimePoint start = engine_.start_time();
  const TimePoint horizon = engine_.horizon();
  auto& nc = engine_.counters(node_);
  const auto events = procsim::tacc_stats_event_set(nc.arch());

  bool prev_down = false;
  for (const Segment& seg : engine_.timeline(node_)) {
    if (seg.kind == Segment::Kind::kDown) {
      prev_down = true;
      continue;
    }
    const bool after_down = prev_down;
    prev_down = false;

    const bool is_job = seg.kind == Segment::Kind::kJob && !config_.sar_mode;
    std::int64_t job_id = 0;
    bool user_custom = false;
    if (is_job) {
      const auto& exec = engine_.executions()[seg.exec_index];
      job_id = exec.req.id;
      user_custom = user_programs_counters(job_id, config_.user_counter_prob);
      // Job begin: reprogram the counters, then sample.
      engine_.advance_node(node_, seg.start);
      for (auto& pc : nc.perf) {
        for (std::size_t slot = 0; slot < procsim::kPerfCountersPerCore; ++slot) {
          pc.program(slot, slot < events.size() ? events[slot]
                                                : procsim::PerfEvent::kNone);
        }
      }
      take_sample(seg.start, job_id, SampleMark::kJobBegin, out);
    } else if (after_down && seg.start > start) {
      // Node reappears after maintenance: boot/rotation sample.
      take_sample(seg.start, 0, SampleMark::kRotate, out);
    }

    // Periodic samples at interval-aligned instants strictly inside the
    // segment. Idle nodes are sampled too (system-level data: the paper
    // aggregates node data into system metrics).
    TimePoint t = ((seg.start / config_.interval) + 1) * config_.interval;
    bool user_programmed_yet = false;
    for (; t < std::min(seg.end, horizon); t += config_.interval) {
      if (is_job && user_custom && !user_programmed_yet) {
        // The user's tool reprograms counter slot 0 shortly after start; the
        // agent must not touch it again until the next job begin.
        engine_.advance_node(node_, t - 1);
        for (auto& pc : nc.perf) pc.program(0, procsim::PerfEvent::kUserCustom);
        user_programmed_yet = true;
      }
      take_sample(t, job_id, SampleMark::kPeriodic, out);
    }

    if (is_job && seg.end <= horizon) {
      take_sample(seg.end, job_id, SampleMark::kJobEnd, out);
    }
  }
  return out;
}

std::vector<NodeOutput> run_all_agents(FacilityEngine& engine, const AgentConfig& config,
                                       std::size_t threads) {
  std::vector<NodeOutput> out(engine.node_count());
  common::pool_run(engine.node_count(), threads, 1, [&](std::size_t n) {
    NodeAgent agent(engine, n, config);
    out[n] = agent.run();
  });
  return out;
}

}  // namespace supremm::taccstats
