// Materialized time-hierarchical rollups over the jobs realm (DESIGN.md §16).
//
// XDMoD answers dashboard traffic from pre-aggregated day/week/month/quarter
// tables rather than raw scans. This layer materializes exactly the partial
// AggStates the time-partitioned query contract folds — one micro-cell per
// (user, app, cluster, day), cascaded day → week → month → quarter with the
// same calendar tree fold — so a query served from any rollup level is
// bit-identical to the raw scan at every thread count and SIMD tier. The
// subsumption checker decides which queries that covers; everything else
// falls back to the raw path unchanged.
//
// This module is the only reader of rollup cells and the only owner of the
// bucket calendar (bucket_grain). serve() answers a local query and
// serve_partial() a federation shard's; both select cells and rebuild
// their states through one routine in rollup.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "warehouse/partial.h"
#include "warehouse/query.h"
#include "warehouse/table.h"

namespace supremm::warehouse::rollup {

/// One rollup level: table name + bucket grain in days.
struct Level {
  const char* table;
  std::int64_t grain;  // days per bucket
};

/// The four levels, finest first. Grains nest exactly (7 | 28 | 84) and the
/// simulated timeline has no real calendar, so DST cannot exist.
[[nodiscard]] std::span<const Level> levels();

/// The jobs-table metric columns materialized per cell, in schema order.
/// int64 metrics (nodes, cores) aggregate as doubles, like the raw path.
[[nodiscard]] std::span<const char* const> metrics();

/// True for the reserved rollup table names ("rollup_" prefix); the archive
/// loader must not treat these as unknown tables.
[[nodiscard]] bool is_rollup_table(std::string_view table);

/// Default for the per-instance rollup switches (ServiceConfig::rollups,
/// ShardExecutor::Options::rollups): false when SUPREMM_ROLLUP is "off" or
/// "0", true otherwise. Read once per process; an explicit assignment to
/// either field wins. An instance serves from rollups iff it built them.
[[nodiscard]] bool default_enabled();

/// Days per bucket of a bucket-start column ("day" 1, "week" 7, "month" 28,
/// "quarter" 84); nullopt for any other column.
[[nodiscard]] std::optional<std::int64_t> bucket_grain(std::string_view column);

/// Derive the bucket-start columns ("day", "week", "month", "quarter", in
/// seconds) from the "end" column and declare the table time-partitioned on
/// end with subkeys (user, app, cluster) — switching Query::run and the
/// testkit oracle to the rollup-reproducible aggregation contract. The
/// caller owns rebuilding the zone index afterwards.
void augment_jobs_table(Table& jobs);

/// The four materialized tables. Row = one cell, in canonical order
/// (bucket ASC, min job id ASC): columns bucket (first day index of the
/// bucket), user, app, cluster, rows, min_jobid, then per metric m the cell
/// partials m_sum, m_min, m_max, m_wv (wv = Σ node_hours · m).
class RollupSet {
 public:
  RollupSet();

  [[nodiscard]] const Table& level(std::size_t i) const { return tables_[i]; }
  [[nodiscard]] Table& level(std::size_t i) { return tables_[i]; }
  [[nodiscard]] std::size_t cells() const noexcept;

 private:
  std::vector<Table> tables_;  // parallel to levels()
};

/// Build all four levels from scratch over a jobs-shaped table (raw or
/// augmented). The reference the incremental path is property-tested
/// against.
[[nodiscard]] RollupSet build_from_table(const Table& jobs);

/// Mirror of one compiled predicate term, engine-agnostic so both the
/// service request compiler and tests can feed the checker.
struct PredInput {
  enum class Op { kEq, kGe, kLe, kBetween };
  Op op = Op::kEq;
  std::string column;
  std::string value;  // kEq
  double lo = 0.0;
  double hi = 0.0;
};

struct QueryInput {
  std::vector<PredInput> where;
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
};

/// A subsumable query, resolved to the coarsest level that can serve it.
struct Plan {
  std::size_t level = 0;                 // index into levels()
  bool has_lo = false, has_hi = false;   // open bounds serve every cell
  std::int64_t d_lo = 0, d_hi = 0;       // inclusive day-index range
  std::vector<std::pair<std::string, std::string>> dim_eq;  // column == value
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
};

/// Decide whether the query is answerable from the rollups, and at which
/// level. Rejects (nullopt → raw path) anything outside the materialized
/// shape — and, critically, any half-open "end" predicate that straddles a
/// day boundary: a bound that cuts a bucket in half cannot be served from
/// whole cells (the off-by-one-day trap at grain edges).
[[nodiscard]] std::optional<Plan> subsume(const QueryInput& q);

/// Answer a subsumed query from the materialized cells. Output is the same
/// "jobs_agg" table the raw path produces, bit-identical. Stats are the
/// documented rollup accounting: rows_scanned = rows of the level table
/// examined (0 when a dim equality literal misses the level dictionary and
/// selection short-circuits), rows_matched = cells selected, chunks 0/0.
[[nodiscard]] Table serve(const RollupSet& rollups, const Plan& plan, QueryStats* stats);

/// A federation shard's answer to a subsumed query: the day-level partial
/// (warehouse/partial.h) read from level-0 cells whatever plan.level is —
/// one tuple per (group, dimension sub-tuple) in first-seen cell order,
/// rank = its minimum job id, one state set per day cell. Bitwise the
/// partial a raw scan of the same rows produces (Query::run_partial with
/// rank column job_id), up to tuple order. Stats as serve() documents, over
/// the level-0 table.
[[nodiscard]] partial::Partial serve_partial(const RollupSet& rollups, const Plan& plan);

}  // namespace supremm::warehouse::rollup
