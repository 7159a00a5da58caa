#include "federation/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "archive/partition.h"
#include "common/cancel.h"
#include "common/error.h"
#include "warehouse/aggstate.h"

namespace supremm::federation {

namespace {

/// The response conversation: hello-ack, then one partial or error frame,
/// framed into a single buffer sized up front.
std::string respond(const std::string& shard, wire::MsgType type, std::string_view payload) {
  const std::string ack = wire::pack_hello_ack({shard});
  std::string out;
  out.reserve(wire::frame_size(ack.size()) + wire::frame_size(payload.size()));
  wire::append_frame(out, wire::MsgType::kHelloAck, ack);
  wire::append_frame(out, type, payload);
  return out;
}

}  // namespace

ShardExecutor::ShardExecutor(std::string name, warehouse::Table jobs, Options opts)
    : name_(std::move(name)), jobs_(std::move(jobs)), opts_(std::move(opts)) {
  if (jobs_.time_partition().empty()) {
    warehouse::rollup::augment_jobs_table(jobs_);
  }
  if (opts_.rollups) {
    rollups_ = std::make_unique<warehouse::rollup::RollupSet>(
        warehouse::rollup::build_from_table(jobs_));
  }
  jobs_.rebuild_zone_index(archive::kDefaultChunkRows);
}

ShardExecutor::ShardExecutor(std::string name, warehouse::Table jobs)
    : ShardExecutor(std::move(name), std::move(jobs), Options{}) {}

ShardInfo ShardExecutor::info() const {
  ShardInfo info;
  info.name = name_;
  const auto dict = jobs_.col("cluster").dict();
  info.clusters.assign(dict.begin(), dict.end());
  const auto ends = jobs_.col("end").int64s();
  if (ends.empty()) {
    info.day_lo = 0;
    info.day_hi = -1;  // empty range: bounded queries prune this shard
    return info;
  }
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (const std::int64_t e : ends) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  info.day_lo = warehouse::end_day_index(lo);
  info.day_hi = warehouse::end_day_index(hi);
  return info;
}

wire::PartialMsg ShardExecutor::execute(const service::QuerySpec& spec,
                                        std::uint32_t deadline_ms,
                                        const std::string& rank_column) const {
  if (spec.table != jobs_.name()) {
    throw common::InvalidArgument("shard " + name_ + " does not host table '" + spec.table +
                                  "'");
  }
  common::CancelToken token;
  if (deadline_ms > 0) {
    token.set_deadline(common::CancelToken::Clock::now() +
                       std::chrono::milliseconds(deadline_ms));
  }

  if (rollups_ != nullptr) {
    if (const auto plan = warehouse::rollup::subsume(service::to_rollup_input(spec))) {
      wire::PartialMsg msg;
      msg.rollup_served = true;
      msg.partial = warehouse::rollup::serve_partial(*rollups_, *plan);
      return msg;
    }
  }

  warehouse::Query q = service::compile(spec, jobs_);
  q.cancel_token(&token);
  wire::PartialMsg msg;
  msg.rollup_served = false;
  msg.partial = q.run_partial(rank_column);
  return msg;
}

std::string ShardExecutor::serve(std::string_view request) const {
  bool timeout = false;
  std::string error;
  try {
    std::size_t offset = 0;
    const wire::Frame hello = wire::read_frame(request, offset);
    if (hello.type != wire::MsgType::kHello) {
      throw common::ParseError("wire: expected hello frame, got type " +
                               std::to_string(static_cast<int>(hello.type)));
    }
    (void)wire::unpack_hello(hello.payload);
    const wire::Frame query = wire::read_frame(request, offset);
    if (query.type != wire::MsgType::kQuery) {
      throw common::ParseError("wire: expected query frame, got type " +
                               std::to_string(static_cast<int>(query.type)));
    }
    if (offset != request.size()) {
      throw common::ParseError("wire: trailing bytes after query conversation");
    }
    const wire::QueryMsg msg = wire::unpack_query(query.payload);
    const wire::PartialMsg out = execute(msg.spec, msg.deadline_ms, msg.rank_column);
    return respond(name_, wire::MsgType::kPartial, wire::pack_partial(out));
  } catch (const common::Cancelled& e) {
    timeout = true;
    error = e.what();
  } catch (const std::exception& e) {
    error = e.what();
  }
  return respond(name_, wire::MsgType::kError, wire::pack_error({error, timeout}));
}

}  // namespace supremm::federation
