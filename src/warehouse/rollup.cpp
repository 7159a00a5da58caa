#include "warehouse/rollup.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "warehouse/aggstate.h"

namespace supremm::warehouse::rollup {

namespace {

// The bucket calendar: per level its table, its grain and (parallel) the
// jobs-table bucket-start column. The only place that names the buckets.
constexpr Level kLevels[] = {
    {"rollup_day", 1},
    {"rollup_week", kDaysPerWeek},
    {"rollup_month", kDaysPerMonth},
    {"rollup_quarter", kDaysPerQuarter},
};
constexpr const char* kBucketColumns[] = {"day", "week", "month", "quarter"};

constexpr const char* kMetrics[] = {
    "node_hours",          "nodes",
    "cores",               "cpu_idle",
    "cpu_flops_gf_node",   "mem_used_gb",
    "mem_used_max_gb",     "io_scratch_write_mb_s",
    "io_work_write_mb_s",  "net_ib_tx_mb_s",
    "net_lnet_tx_mb_s",    "cpu_user",
    "cpu_system",          "io_scratch_read_mb_s",
    "net_ib_rx_mb_s",      "net_lnet_rx_mb_s",
    "swap_mb_s",           "load_mean",
};
constexpr std::size_t kNumMetrics = std::size(kMetrics);
constexpr std::size_t kNodeHours = 0;  // kMetrics[0]; wv weights come from it

constexpr const char* kDims[] = {"user", "app", "cluster"};

// Rejected bound magnitude before double → int64 conversion (2^62; int64
// holds it and adding a grain's worth of seconds cannot overflow).
constexpr double kMaxBound = 4611686018427387904.0;

std::vector<std::pair<std::string, ColType>> level_schema(std::size_t li) {
  std::vector<std::pair<std::string, ColType>> schema;
  schema.emplace_back("bucket", ColType::kInt64);
  for (const char* d : kDims) schema.emplace_back(d, ColType::kString);
  schema.emplace_back("rows", ColType::kInt64);
  schema.emplace_back("min_jobid", ColType::kInt64);
  for (const char* m : kMetrics) {
    schema.emplace_back(std::string(m) + "_sum", ColType::kDouble);
    schema.emplace_back(std::string(m) + "_min", ColType::kDouble);
    schema.emplace_back(std::string(m) + "_max", ColType::kDouble);
    schema.emplace_back(std::string(m) + "_wv", ColType::kDouble);
  }
  (void)li;
  return schema;
}

/// Numeric column view: int64 metrics (nodes, cores) read as double, same
/// as the raw path's NumRef.
struct NumView {
  const double* f64 = nullptr;
  const std::int64_t* i64 = nullptr;
  [[nodiscard]] double value(std::size_t r) const {
    return f64 != nullptr ? f64[r] : static_cast<double>(i64[r]);
  }
};

NumView num_view(const Table& t, const char* name) {
  const Column& c = t.col(name);
  NumView v;
  if (c.type() == ColType::kDouble) {
    v.f64 = c.doubles().data();
  } else if (c.type() == ColType::kInt64) {
    v.i64 = c.int64s().data();
  } else {
    throw common::InvalidArgument("rollup metric '" + std::string(name) + "' is not numeric");
  }
  return v;
}

/// One materialized cell while building: identity + the per-metric partial
/// AggStates the fold operates on (state fields: sum = Σv, wsum = Σw,
/// wvsum = Σw·v, mn/mx, n = rows; w = node_hours).
struct Cell {
  std::int64_t bucket = 0;  // first day index of the bucket
  std::int32_t user = 0, app = 0, cluster = 0;
  std::int64_t min_jobid = 0;
  std::vector<AggState> m;  // [kNumMetrics]
};

/// Day cells of a jobs-shaped table, in canonical (day ASC, min_jobid ASC)
/// order. Accumulation is purely sequential in row order — the exact
/// per-cell partials the time-partitioned query contract produces.
std::vector<Cell> build_day_cells(const Table& jobs) {
  const std::int64_t* job_id = jobs.col("job_id").int64s().data();
  const std::int64_t* end = jobs.col("end").int64s().data();
  const std::int32_t* user = jobs.col("user").codes().data();
  const std::int32_t* app = jobs.col("app").codes().data();
  const std::int32_t* cluster = jobs.col("cluster").codes().data();
  std::array<NumView, kNumMetrics> views;
  for (std::size_t i = 0; i < kNumMetrics; ++i) views[i] = num_view(jobs, kMetrics[i]);

  std::unordered_map<std::array<std::int64_t, 4>, std::size_t, common::WordsHash> index;
  std::vector<Cell> cells;
  const std::size_t nrows = jobs.rows();
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::int64_t day = end_day_index(end[r]);
    const std::array<std::int64_t, 4> key{day, user[r], app[r], cluster[r]};
    const auto [it, inserted] = index.emplace(key, cells.size());
    if (inserted) {
      Cell c;
      c.bucket = day;
      c.user = user[r];
      c.app = app[r];
      c.cluster = cluster[r];
      c.min_jobid = job_id[r];
      c.m.assign(kNumMetrics, AggState{});
      cells.push_back(std::move(c));
    }
    Cell& c = cells[it->second];
    c.min_jobid = std::min(c.min_jobid, job_id[r]);
    const double w = views[kNodeHours].value(r);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      AggState& s = c.m[i];
      const double v = views[i].value(r);
      ++s.n;
      s.sum += v;
      s.mn = std::min(s.mn, v);
      s.mx = std::max(s.mx, v);
      s.wsum += w;
      s.wvsum += w * v;
    }
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.bucket != b.bucket ? a.bucket < b.bucket : a.min_jobid < b.min_jobid;
  });
  return cells;
}

/// Cells at `grain` days from day cells (already canonical order): per
/// (bucket, user, app, cluster), the day cells fold through the calendar
/// tree — NOT a flat left fold, so a month is its weeks' fold exactly as
/// the query contract computes it and bit-identity holds at every level.
std::vector<Cell> fold_level(const std::vector<Cell>& days, std::int64_t grain) {
  std::unordered_map<std::array<std::int64_t, 4>, std::size_t, common::WordsHash> index;
  std::vector<std::vector<std::size_t>> members;  // day-cell indices, day ASC
  std::vector<Cell> out;
  for (std::size_t i = 0; i < days.size(); ++i) {
    const Cell& d = days[i];
    const std::int64_t bucket = floor_div(d.bucket, grain) * grain;
    const std::array<std::int64_t, 4> key{bucket, d.user, d.app, d.cluster};
    const auto [it, inserted] = index.emplace(key, out.size());
    if (inserted) {
      Cell c;
      c.bucket = bucket;
      c.user = d.user;
      c.app = d.app;
      c.cluster = d.cluster;
      c.min_jobid = d.min_jobid;
      c.m.assign(kNumMetrics, AggState{});
      out.push_back(std::move(c));
      members.emplace_back();
    }
    out[it->second].min_jobid = std::min(out[it->second].min_jobid, d.min_jobid);
    members[it->second].push_back(i);
  }
  for (std::size_t g = 0; g < out.size(); ++g) {
    TimeTreeFold fold(out[g].m.data(), kNumMetrics);
    for (const std::size_t i : members[g]) fold.add(days[i].bucket, days[i].m.data());
    fold.finish();
  }
  std::sort(out.begin(), out.end(), [](const Cell& a, const Cell& b) {
    return a.bucket != b.bucket ? a.bucket < b.bucket : a.min_jobid < b.min_jobid;
  });
  return out;
}

Table cells_to_table(const std::vector<Cell>& cells, std::size_t li, const Table& jobs) {
  Table t(kLevels[li].table, level_schema(li));
  for (const char* d : kDims) {
    std::vector<std::string> dict(jobs.col(d).dict().begin(), jobs.col(d).dict().end());
    t.col(d).set_dict(std::move(dict));
  }
  for (const Cell& c : cells) {
    auto row = t.append();
    row.set("bucket", c.bucket)
        .set("user", jobs.col("user").decode(c.user))
        .set("app", jobs.col("app").decode(c.app))
        .set("cluster", jobs.col("cluster").decode(c.cluster))
        .set("rows", c.m[0].n)
        .set("min_jobid", c.min_jobid);
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      const std::string m = kMetrics[i];
      row.set(m + "_sum", c.m[i].sum)
          .set(m + "_min", c.m[i].mn)
          .set(m + "_max", c.m[i].mx)
          .set(m + "_wv", c.m[i].wvsum);
    }
  }
  return t;
}

std::int64_t pos_mod(std::int64_t a, std::int64_t b) { return a - floor_div(a, b) * b; }

/// ceil(a / b) for b > 0.
std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return floor_div(a + b - 1, b); }

bool is_dim(std::string_view name) {
  for (const char* d : kDims) {
    if (name == d) return true;
  }
  return false;
}

bool is_metric(std::string_view name) {
  for (const char* m : kMetrics) {
    if (name == m) return true;
  }
  return false;
}

/// Finite integer ceiling/floor of a predicate bound, or nullopt when the
/// bound cannot be converted soundly (NaN, or magnitude beyond 2^62).
std::optional<std::int64_t> int_ceil(double v) {
  if (std::isnan(v) || !(v >= -kMaxBound && v <= kMaxBound)) return std::nullopt;
  return static_cast<std::int64_t>(std::ceil(v));
}
std::optional<std::int64_t> int_floor(double v) {
  if (std::isnan(v) || !(v >= -kMaxBound && v <= kMaxBound)) return std::nullopt;
  return static_cast<std::int64_t>(std::floor(v));
}

}  // namespace

std::span<const Level> levels() { return kLevels; }

std::span<const char* const> metrics() { return {kMetrics, kNumMetrics}; }

bool is_rollup_table(std::string_view table) { return table.starts_with("rollup_"); }

bool default_enabled() {
  static const bool on = [] {
    const char* e = std::getenv("SUPREMM_ROLLUP");
    const std::string_view sv = e != nullptr ? std::string_view(e) : std::string_view();
    return sv != "off" && sv != "0";
  }();
  return on;
}

std::optional<std::int64_t> bucket_grain(std::string_view column) {
  for (std::size_t li = 0; li < std::size(kLevels); ++li) {
    if (column == kBucketColumns[li]) return kLevels[li].grain;
  }
  return std::nullopt;
}

void augment_jobs_table(Table& jobs) {
  const auto ends = jobs.col("end").int64s();
  std::array<std::vector<std::int64_t>, std::size(kLevels)> cols;
  for (auto& c : cols) c.reserve(ends.size());
  for (const std::int64_t end : ends) {
    const std::int64_t d = end_day_index(end);
    for (std::size_t li = 0; li < cols.size(); ++li) {
      cols[li].push_back(floor_div(d, kLevels[li].grain) * kLevels[li].grain * common::kDay);
    }
  }
  for (std::size_t li = 0; li < cols.size(); ++li) {
    jobs.add_int64_column(kBucketColumns[li], std::move(cols[li]));
  }
  jobs.set_time_partition("end", {"user", "app", "cluster"});
}

RollupSet::RollupSet() {
  tables_.reserve(std::size(kLevels));
  for (std::size_t li = 0; li < std::size(kLevels); ++li) {
    tables_.emplace_back(kLevels[li].table, level_schema(li));
  }
}

std::size_t RollupSet::cells() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tables_) n += t.rows();
  return n;
}

RollupSet build_from_table(const Table& jobs) {
  RollupSet set;
  const std::vector<Cell> days = build_day_cells(jobs);
  for (std::size_t li = 0; li < std::size(kLevels); ++li) {
    const std::vector<Cell> cells =
        kLevels[li].grain == 1 ? days : fold_level(days, kLevels[li].grain);
    set.level(li) = cells_to_table(cells, li, jobs);
  }
  return set;
}

std::optional<Plan> subsume(const QueryInput& q) {
  Plan plan;

  if (q.group_by.size() > 4) return std::nullopt;  // raw path owns the error
  for (std::size_t i = 0; i < q.group_by.size(); ++i) {
    const std::string& k = q.group_by[i];
    if (!is_dim(k) && !bucket_grain(k)) return std::nullopt;
    for (std::size_t j = 0; j < i; ++j) {
      if (q.group_by[j] == k) return std::nullopt;  // duplicate key: raw error
    }
  }
  plan.group_by = q.group_by;

  for (const AggSpec& a : q.aggs) {
    switch (a.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kMean:
      case AggKind::kMin:
      case AggKind::kMax:
        if (!is_metric(a.column)) return std::nullopt;
        break;
      case AggKind::kWeightedMean:
        if (a.weight != kMetrics[kNodeHours] || !is_metric(a.column)) return std::nullopt;
        break;
    }
  }
  plan.aggs = q.aggs;

  const auto narrow_lo = [&plan](std::int64_t d) {
    plan.d_lo = plan.has_lo ? std::max(plan.d_lo, d) : d;
    plan.has_lo = true;
  };
  const auto narrow_hi = [&plan](std::int64_t d) {
    plan.d_hi = plan.has_hi ? std::min(plan.d_hi, d) : d;
    plan.has_hi = true;
  };

  for (const PredInput& p : q.where) {
    const bool wants_lo = p.op == PredInput::Op::kGe || p.op == PredInput::Op::kBetween;
    const bool wants_hi = p.op == PredInput::Op::kLe || p.op == PredInput::Op::kBetween;
    if (p.op == PredInput::Op::kEq) {
      if (!is_dim(p.column)) return std::nullopt;
      plan.dim_eq.emplace_back(p.column, p.value);
      continue;
    }
    // An infinite bound is "unbounded" only on its own side: lo = −inf and
    // hi = +inf widen the range, but lo = +inf / hi = −inf are degenerate
    // (they match nothing) and belong to the raw path.
    if ((wants_lo && std::isinf(p.lo) && p.lo > 0) ||
        (wants_hi && std::isinf(p.hi) && p.hi < 0)) {
      return std::nullopt;
    }
    if (const auto grain = bucket_grain(p.column)) {
      // Bucket-start columns hold only multiples of grain*kDay, so ANY
      // bound selects whole buckets: round it to the nearest bucket edge.
      const std::int64_t span = *grain * common::kDay;
      if (wants_lo && !std::isinf(p.lo)) {
        const auto c = int_ceil(p.lo);
        if (!c) return std::nullopt;
        narrow_lo(ceil_div(*c, span) * *grain);
      }
      if (wants_hi && !std::isinf(p.hi)) {
        const auto f = int_floor(p.hi);
        if (!f) return std::nullopt;
        narrow_hi((floor_div(*f, span) + 1) * *grain - 1);
      }
      continue;
    }
    if (p.column == "end") {
      // Raw end bounds are servable only when they cut exactly at a day
      // edge: day D holds end ∈ (D·86400, (D+1)·86400], so a lower bound
      // must land on D·86400+1 and an upper bound on D·86400 — anything
      // else splits a bucket and MUST fall back to the raw scan (the
      // off-by-one-day trap at grain edges).
      if (wants_lo && !std::isinf(p.lo)) {
        const auto c = int_ceil(p.lo);
        if (!c || pos_mod(*c, common::kDay) != 1) return std::nullopt;
        narrow_lo(floor_div(*c - 1, common::kDay));
      }
      if (wants_hi && !std::isinf(p.hi)) {
        const auto f = int_floor(p.hi);
        if (!f || pos_mod(*f, common::kDay) != 0) return std::nullopt;
        narrow_hi(floor_div(*f, common::kDay) - 1);
      }
      continue;
    }
    return std::nullopt;  // any other column or op: raw path
  }

  // Coarsest level that (a) divides every bucket group key's grain and
  // (b) the day range is aligned to.
  for (std::size_t li = std::size(kLevels); li-- > 0;) {
    const std::int64_t L = kLevels[li].grain;
    bool ok = true;
    for (const std::string& k : plan.group_by) {
      if (const auto grain = bucket_grain(k); grain && *grain % L != 0) ok = false;
    }
    if (plan.has_lo && pos_mod(plan.d_lo, L) != 0) ok = false;
    if (plan.has_hi && pos_mod(plan.d_hi + 1, L) != 0) ok = false;
    if (ok) {
      plan.level = li;
      return plan;
    }
  }
  return std::nullopt;  // unreachable: level 0 (grain 1) always qualifies
}


namespace {

/// One unit-key column of a level table: a dimension reads its dictionary
/// codes, a bucket key derives its bucket from the cell's bucket column.
struct KeyView {
  const Column* dim = nullptr;
  const std::int32_t* codes = nullptr;  // dim
  const std::int64_t* bucket = nullptr;  // bucket key
  std::int64_t grain = 0;                // bucket key (days)

  /// Unit-key word of cell r: the dim code, or the bucket index at grain.
  [[nodiscard]] std::uint64_t word(std::size_t r) const {
    if (codes != nullptr) return static_cast<std::uint32_t>(codes[r]);
    return static_cast<std::uint64_t>(floor_div(bucket[r], grain));
  }

  /// Output key value of cell r: the dim string, or the bucket start in
  /// seconds.
  [[nodiscard]] partial::KeyValue value(std::size_t r) const {
    partial::KeyValue v;
    if (dim != nullptr) {
      v.type = ColType::kString;
      v.str = std::string(dim->decode(codes[r]));
    } else {
      v.i64 = floor_div(bucket[r], grain) * grain * common::kDay;
    }
    return v;
  }
};

constexpr std::size_t kMaxGroupWords = 4;
constexpr std::size_t kMaxUnitWords = kMaxGroupWords + std::size(kDims);

/// The plan's group keys, then the dimensions not already group keys.
std::vector<KeyView> unit_views(const Table& t, const std::vector<std::string>& group_by) {
  if (group_by.size() > kMaxGroupWords) {
    throw common::InvalidArgument("rollup plan: more than 4 group keys");
  }
  std::vector<KeyView> views;
  const std::int64_t* bucket = t.col("bucket").int64s().data();
  const auto dim_view = [&t](std::string_view d) {
    const Column& c = t.col(d);
    return KeyView{&c, c.codes().data(), nullptr, 0};
  };
  for (const std::string& k : group_by) {
    if (const auto grain = bucket_grain(k)) {
      views.push_back(KeyView{nullptr, nullptr, bucket, *grain});
    } else {
      views.push_back(dim_view(k));
    }
  }
  for (const char* d : kDims) {
    if (std::find(group_by.begin(), group_by.end(), d) == group_by.end()) {
      views.push_back(dim_view(d));
    }
  }
  return views;
}

/// Rebuilds a cell's per-agg partial states from the level table's
/// materialized columns (rows, m_sum/_min/_max/_wv, node_hours_sum).
class CellReader {
 public:
  CellReader(const Table& t, const std::vector<AggSpec>& aggs)
      : aggs_(aggs),
        rows_(t.col("rows").int64s().data()),
        node_hours_sum_(t.col("node_hours_sum").doubles().data()),
        cols_(aggs.size()) {
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].kind == AggKind::kCount) continue;
      const std::string& m = aggs[a].column;
      cols_[a] = {t.col(m + "_sum").doubles().data(), t.col(m + "_min").doubles().data(),
                  t.col(m + "_max").doubles().data(), t.col(m + "_wv").doubles().data()};
    }
  }

  /// The states of cell r into out[0, naggs).
  void states(std::size_t r, AggState* out) const {
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      AggState& s = out[a];
      s = AggState{};
      s.n = rows_[r];
      if (aggs_[a].kind == AggKind::kCount) continue;
      const MetricCols& c = cols_[a];
      s.sum = c.sum[r];
      s.mn = c.mn[r];
      s.mx = c.mx[r];
      if (aggs_[a].kind == AggKind::kWeightedMean) {
        s.wsum = node_hours_sum_[r];
        s.wvsum = c.wv[r];
      }
    }
  }

 private:
  struct MetricCols {
    const double* sum = nullptr;
    const double* mn = nullptr;
    const double* mx = nullptr;
    const double* wv = nullptr;
  };
  const std::vector<AggSpec>& aggs_;
  const std::int64_t* rows_;
  const double* node_hours_sum_;
  std::vector<MetricCols> cols_;
};

/// The cells of one level table a plan selects, bucketed into fold units.
/// A unit is (group tuple, dimension sub-tuple): the dimensions not already
/// group keys extend the key, exactly as in the raw contract.
struct Selection {
  struct Unit {
    std::size_t group = 0;
    std::int64_t min_jobid = 0;
    std::vector<std::size_t> cells;  // level-table rows, bucket ascending
  };
  struct Group {
    std::size_t example = 0;  // first selected cell of the group
    std::int64_t min_jobid = 0;
  };
  std::vector<KeyView> views;  // unit key: group keys, then the other dims
  std::vector<Unit> units;      // first-seen table order
  std::vector<Group> groups;    // first-seen table order
  std::size_t rows_scanned = 0;  // 0 when a dim literal misses the dictionary
  std::size_t selected = 0;
};

/// Select the plan's cells of level table `t` (bucket grain `grain` days)
/// and bucket them into units. Table order is (bucket ASC, min_jobid ASC),
/// so each unit's cell list comes out in ascending bucket order, ready for
/// the tree fold.
Selection select_cells(const Table& t, std::int64_t grain, const Plan& plan) {
  Selection sel;
  sel.views = unit_views(t, plan.group_by);
  const std::vector<KeyView>& views = sel.views;
  // Dim equality literals resolve to this table's dictionary codes; a
  // literal absent from the dictionary selects nothing.
  std::vector<std::pair<const std::int32_t*, std::int32_t>> dim_tests;
  for (const auto& [col, val] : plan.dim_eq) {
    const auto code = t.col(col).find_code(val);
    if (!code) return sel;
    dim_tests.emplace_back(t.col(col).codes().data(), *code);
  }

  const std::int64_t* bucket = t.col("bucket").int64s().data();
  const std::int64_t* min_jid = t.col("min_jobid").int64s().data();
  const std::size_t ngroup = plan.group_by.size();
  using UnitKey = std::array<std::uint64_t, kMaxUnitWords>;
  using GroupKey = std::array<std::uint64_t, kMaxGroupWords>;
  std::unordered_map<UnitKey, std::size_t, common::WordsHash> unit_index;
  std::unordered_map<GroupKey, std::size_t, common::WordsHash> group_index;
  sel.rows_scanned = t.rows();
  for (std::size_t r = 0; r < sel.rows_scanned; ++r) {
    const std::int64_t b = bucket[r];
    if (plan.has_lo && b < plan.d_lo) continue;
    if (plan.has_hi && b + grain - 1 > plan.d_hi) continue;
    bool pass = true;
    for (const auto& [codes, code] : dim_tests) {
      if (codes[r] != code) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++sel.selected;
    UnitKey key{};
    for (std::size_t k = 0; k < views.size(); ++k) key[k] = views[k].word(r);
    const auto [uit, uinserted] = unit_index.emplace(key, sel.units.size());
    if (uinserted) {
      GroupKey gkey{};
      std::copy_n(key.begin(), ngroup, gkey.begin());
      const auto [git, ginserted] = group_index.emplace(gkey, sel.groups.size());
      if (ginserted) sel.groups.push_back({r, min_jid[r]});
      sel.units.push_back({git->second, min_jid[r], {}});
    }
    Selection::Unit& u = sel.units[uit->second];
    u.min_jobid = std::min(u.min_jobid, min_jid[r]);
    u.cells.push_back(r);
  }
  for (const Selection::Unit& u : sel.units) {
    Selection::Group& g = sel.groups[u.group];
    g.min_jobid = std::min(g.min_jobid, u.min_jobid);
  }
  return sel;
}

/// Output key columns: bucket keys are int64 bucket starts, dims strings.
std::vector<std::pair<std::string, ColType>> key_schema(const std::vector<std::string>& group_by) {
  std::vector<std::pair<std::string, ColType>> schema;
  for (const std::string& k : group_by) {
    schema.emplace_back(k, bucket_grain(k) ? ColType::kInt64 : ColType::kString);
  }
  return schema;
}

}  // namespace

Table serve(const RollupSet& rollups, const Plan& plan, QueryStats* stats) {
  const Table& t = rollups.level(plan.level);
  const std::size_t naggs = plan.aggs.size();
  const Selection sel = select_cells(t, kLevels[plan.level].grain, plan);

  // Per unit: rebuild each cell's states and tree-fold them.
  const CellReader reader(t, plan.aggs);
  const std::int64_t* bucket = t.col("bucket").int64s().data();
  std::vector<AggState> unit_states(sel.units.size() * naggs);
  std::vector<AggState> cell_states(naggs);
  std::vector<std::vector<std::size_t>> group_units(sel.groups.size());
  for (std::size_t u = 0; u < sel.units.size(); ++u) {
    TimeTreeFold fold(unit_states.data() + u * naggs, naggs);
    for (const std::size_t r : sel.units[u].cells) {
      reader.states(r, cell_states.data());
      fold.add(bucket[r], cell_states.data());
    }
    fold.finish();
    group_units[sel.units[u].group].push_back(u);
  }

  // Contract emission order: groups by first match = ascending min job id;
  // within a group, sub-tuples merge in the same order.
  std::vector<std::size_t> group_order(sel.groups.size());
  std::iota(group_order.begin(), group_order.end(), std::size_t{0});
  std::sort(group_order.begin(), group_order.end(), [&sel](std::size_t a, std::size_t b) {
    return sel.groups[a].min_jobid < sel.groups[b].min_jobid;
  });

  std::vector<std::pair<std::string, ColType>> schema = key_schema(plan.group_by);
  add_agg_columns(schema, plan.aggs);
  Table out("jobs_agg", std::move(schema));
  std::vector<AggState> gstates(naggs);
  for (const std::size_t gi : group_order) {
    std::vector<std::size_t>& units = group_units[gi];
    std::sort(units.begin(), units.end(), [&sel](std::size_t a, std::size_t b) {
      return sel.units[a].min_jobid < sel.units[b].min_jobid;
    });
    std::fill(gstates.begin(), gstates.end(), AggState{});
    for (const std::size_t u : units) {
      merge_states(gstates.data(), unit_states.data() + u * naggs, naggs);
    }
    auto row = out.append();
    for (std::size_t k = 0; k < plan.group_by.size(); ++k) {
      const partial::KeyValue v = sel.views[k].value(sel.groups[gi].example);
      if (v.type == ColType::kString) {
        row.set(plan.group_by[k], v.str);
      } else {
        row.set(plan.group_by[k], v.i64);
      }
    }
    set_aggs(row, plan.aggs, gstates.data());
  }

  if (stats != nullptr) {
    *stats = QueryStats{};
    stats->rows_scanned = sel.rows_scanned;
    stats->rows_matched = sel.selected;
  }
  return out;
}

partial::Partial serve_partial(const RollupSet& rollups, const Plan& plan) {
  // Level-0 (day) cells whatever level the plan resolved: the coordinator
  // folds day-level states, and a coarser cell can straddle a shard's time
  // split. A day cell IS the raw contract's micro-cell, so each tuple's
  // states are the ones a raw scan of this shard would have collected.
  const Table& t = rollups.level(0);
  const std::size_t naggs = plan.aggs.size();
  const Selection sel = select_cells(t, kLevels[0].grain, plan);
  const CellReader reader(t, plan.aggs);
  const std::int64_t* bucket = t.col("bucket").int64s().data();

  partial::Partial p;
  p.naggs = naggs;
  p.key_schema = key_schema(plan.group_by);
  p.tuples.reserve(sel.units.size());
  for (const Selection::Unit& u : sel.units) {
    partial::TuplePartial& tp = p.tuples.emplace_back();
    const std::size_t r0 = u.cells.front();
    tp.group.reserve(plan.group_by.size());
    tp.extra.reserve(sel.views.size() - plan.group_by.size());
    for (std::size_t k = 0; k < sel.views.size(); ++k) {
      (k < plan.group_by.size() ? tp.group : tp.extra).push_back(sel.views[k].value(r0));
    }
    tp.rank = u.min_jobid;
    tp.days.reserve(u.cells.size());
    tp.states.resize(u.cells.size() * naggs);
    for (std::size_t i = 0; i < u.cells.size(); ++i) {
      tp.days.push_back(bucket[u.cells[i]]);
      reader.states(u.cells[i], tp.states.data() + i * naggs);
    }
  }
  p.stats.rows_scanned = sel.rows_scanned;
  p.stats.rows_matched = sel.selected;
  return p;
}

}  // namespace supremm::warehouse::rollup
