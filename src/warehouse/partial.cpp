#include "warehouse/partial.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "common/error.h"

namespace supremm::warehouse::partial {

namespace {

/// Exact serialized identity of a tuple's key values: type tag plus the
/// raw payload (length-prefixed string, or the 8 value bytes verbatim), so
/// distinct doubles — including NaN payloads and ±0.0 — stay distinct and
/// no decimal rendering can conflate keys.
void append_key(std::string& out, const KeyValue& v) {
  out.push_back(static_cast<char>(v.type));
  switch (v.type) {
    case ColType::kString: {
      const auto len = static_cast<std::uint32_t>(v.str.size());
      out.append(reinterpret_cast<const char*>(&len), sizeof(len));
      out.append(v.str);
      break;
    }
    case ColType::kInt64:
      out.append(reinterpret_cast<const char*>(&v.i64), sizeof(v.i64));
      break;
    case ColType::kDouble:
      out.append(reinterpret_cast<const char*>(&v.bits), sizeof(v.bits));
      break;
  }
}

std::string tuple_identity(const TuplePartial& t) {
  std::string id;
  id.push_back(static_cast<char>(t.group.size()));
  for (const auto& v : t.group) append_key(id, v);
  for (const auto& v : t.extra) append_key(id, v);
  return id;
}

std::string group_identity(const TuplePartial& t) {
  std::string id;
  for (const auto& v : t.group) append_key(id, v);
  return id;
}

/// One tuple being unioned across shards: day entries keep (day, arrival
/// sequence) so duplicate days — a placement that split a cell, outside the
/// §17 contract — still left-fold deterministically in `parts` order.
struct MergedTuple {
  const TuplePartial* example = nullptr;  // key values (any shard's copy)
  std::int64_t rank = 0;
  std::vector<std::int64_t> days;
  std::vector<AggState> states;  // parallel to days, [i * naggs + agg]
};

}  // namespace

Table merge_partials(std::span<const Partial> parts, const std::vector<AggSpec>& aggs,
                     const std::string& out_name, QueryStats* stats) {
  if (parts.empty()) {
    throw common::InvalidArgument("merge_partials: no shard partials");
  }
  const Partial& first = parts.front();
  const std::size_t naggs = first.naggs;
  if (naggs != aggs.size()) {
    throw common::InvalidArgument("merge_partials: aggregate count mismatch");
  }
  QueryStats total;
  for (const Partial& p : parts) {
    if (p.key_schema != first.key_schema || p.naggs != naggs) {
      throw common::InvalidArgument("merge_partials: shard partial schema mismatch");
    }
    total.chunks_total += p.stats.chunks_total;
    total.chunks_pruned += p.stats.chunks_pruned;
    total.rows_scanned += p.stats.rows_scanned;
    total.rows_matched += p.stats.rows_matched;
  }

  // Union tuples across shards in `parts` order: rank = min over shards,
  // day lists concatenate (disjoint under the placement contract).
  std::unordered_map<std::string, std::uint32_t> tuple_index;
  std::vector<MergedTuple> tuples;
  for (const Partial& p : parts) {
    for (const TuplePartial& t : p.tuples) {
      if (t.states.size() != t.days.size() * naggs) {
        throw common::InvalidArgument("merge_partials: malformed tuple partial");
      }
      const auto [it, inserted] =
          tuple_index.emplace(tuple_identity(t), static_cast<std::uint32_t>(tuples.size()));
      if (inserted) tuples.push_back({&t, t.rank, {}, {}});
      MergedTuple& m = tuples[it->second];
      m.rank = std::min(m.rank, t.rank);
      m.days.insert(m.days.end(), t.days.begin(), t.days.end());
      m.states.insert(m.states.end(), t.states.begin(), t.states.end());
    }
  }

  // Canonical tuple order: ascending rank (= min job id for the federation;
  // exactly the engine's first-match order on a rank-sorted table). Groups
  // then form in first-seen order over that sequence, which makes the group
  // order ascending min rank as well — the engine's group order.
  std::vector<std::uint32_t> order(tuples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&tuples](std::uint32_t a, std::uint32_t b) {
    return tuples[a].rank < tuples[b].rank;
  });

  std::unordered_map<std::string, std::uint32_t> group_index;
  std::vector<const TuplePartial*> group_example;  // first tuple of the group
  std::vector<AggState> group_states;              // [group * naggs + agg]
  std::vector<AggState> sub_total(naggs);
  for (const std::uint32_t ti : order) {
    MergedTuple& m = tuples[ti];
    // Sort the union's day entries ascending; a stable sort keeps duplicate
    // days in shard arrival order so the defensive in-place fold below is
    // deterministic.
    std::vector<std::uint32_t> dorder(m.days.size());
    for (std::size_t i = 0; i < dorder.size(); ++i) dorder[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(dorder.begin(), dorder.end(), [&m](std::uint32_t a, std::uint32_t b) {
      return m.days[a] < m.days[b];
    });

    std::fill(sub_total.begin(), sub_total.end(), AggState{});
    TimeTreeFold fold(sub_total.data(), naggs);
    std::size_t i = 0;
    std::vector<AggState> dup(naggs);
    while (i < dorder.size()) {
      const std::int64_t day = m.days[dorder[i]];
      std::size_t j = i + 1;
      while (j < dorder.size() && m.days[dorder[j]] == day) ++j;
      if (j == i + 1) {
        fold.add(day, m.states.data() + std::size_t{dorder[i]} * naggs);
      } else {
        std::fill(dup.begin(), dup.end(), AggState{});
        for (std::size_t x = i; x < j; ++x) {
          merge_states(dup.data(), m.states.data() + std::size_t{dorder[x]} * naggs, naggs);
        }
        fold.add(day, dup.data());
      }
      i = j;
    }
    fold.finish();

    const auto [it, inserted] = group_index.emplace(
        group_identity(*m.example), static_cast<std::uint32_t>(group_example.size()));
    if (inserted) {
      group_example.push_back(m.example);
      group_states.resize(group_states.size() + naggs);
    }
    merge_states(group_states.data() + std::size_t{it->second} * naggs, sub_total.data(), naggs);
  }

  // Emit the same "_agg" table shape a single-warehouse Query::run produces.
  std::vector<std::pair<std::string, ColType>> schema = first.key_schema;
  add_agg_columns(schema, aggs);
  Table out(out_name, std::move(schema));
  for (std::size_t g = 0; g < group_example.size(); ++g) {
    auto row = out.append();
    const TuplePartial& ex = *group_example[g];
    for (std::size_t k = 0; k < first.key_schema.size(); ++k) {
      const auto& [name, type] = first.key_schema[k];
      const KeyValue& v = ex.group[k];
      switch (type) {
        case ColType::kString:
          row.set(name, v.str);
          break;
        case ColType::kInt64:
          row.set(name, v.i64);
          break;
        case ColType::kDouble:
          row.set(name, std::bit_cast<double>(v.bits));
          break;
      }
    }
    set_aggs(row, aggs, group_states.data() + g * naggs);
  }
  out.finalize_rows();
  if (stats != nullptr) *stats = total;
  return out;
}

}  // namespace supremm::warehouse::partial
