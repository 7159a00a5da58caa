#include "warehouse/partial.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string_view>

#include "common/error.h"
#include "common/rng.h"
#include "warehouse/id_index.h"

namespace supremm::warehouse::partial {

namespace {

/// Exact identity of key values: type tag plus the raw payload (string
/// bytes, or the 8 value bytes verbatim), so distinct doubles — including
/// NaN payloads and ±0.0 — stay distinct and no decimal rendering can
/// conflate keys.
bool same_value(const KeyValue& a, const KeyValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case ColType::kString:
      return a.str == b.str;
    case ColType::kInt64:
      return a.i64 == b.i64;
    case ColType::kDouble:
      return a.bits == b.bits;
  }
  return false;
}

bool same_values(const std::vector<KeyValue>& a, const std::vector<KeyValue>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), same_value);
}

std::uint64_t hash_values(std::uint64_t h, const std::vector<KeyValue>& vals) {
  for (const KeyValue& v : vals) {
    std::uint64_t w = 0;
    switch (v.type) {
      case ColType::kString:
        w = std::hash<std::string_view>{}(v.str);
        break;
      case ColType::kInt64:
        w = static_cast<std::uint64_t>(v.i64);
        break;
      case ColType::kDouble:
        w = v.bits;
        break;
    }
    h = common::splitmix64(h ^ static_cast<std::uint64_t>(v.type));
    h = common::splitmix64(h ^ w);
  }
  return h;
}

/// One shard's copy of a tuple, chained to the next shard's copy of the
/// same tuple in `parts` order.
struct TupleCopy {
  static constexpr std::uint32_t kEnd = ~std::uint32_t{0};
  const TuplePartial* tuple = nullptr;
  std::uint32_t next = kEnd;
};

/// One tuple being unioned across shards: a chain of copies (the first
/// supplies the key values), so the common case — a tuple one shard
/// answered alone — folds straight from that shard's TuplePartial.
struct MergedTuple {
  std::int64_t rank = 0;
  std::uint32_t head = 0;  // first and last copy, indices into the copies
  std::uint32_t last = 0;
};

bool strictly_ascending(const std::vector<std::int64_t>& days) {
  return std::adjacent_find(days.begin(), days.end(), std::greater_equal<>()) == days.end();
}

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
  std::size_t ntuples = 0;
  for (const Partial& p : parts) {
    if (p.key_schema != first.key_schema || p.naggs != naggs) {
      throw common::InvalidArgument("merge_partials: shard partial schema mismatch");
    }
    total.chunks_total += p.stats.chunks_total;
    total.chunks_pruned += p.stats.chunks_pruned;
    total.rows_scanned += p.stats.rows_scanned;
    total.rows_matched += p.stats.rows_matched;
    ntuples += p.tuples.size();
  }

  // Union tuples across shards in `parts` order: rank = min over shards,
  // day lists concatenate (disjoint under the placement contract).
  IdIndex tuple_index(ntuples);
  std::vector<MergedTuple> tuples;
  tuples.reserve(ntuples);
  std::vector<TupleCopy> copies;
  copies.reserve(ntuples);
  for (const Partial& p : parts) {
    for (const TuplePartial& t : p.tuples) {
      if (t.states.size() != t.days.size() * naggs) {
        throw common::InvalidArgument("merge_partials: malformed tuple partial");
      }
      const std::uint64_t h = hash_values(hash_values(t.group.size(), t.group), t.extra);
      const auto [ti, inserted] = tuple_index.insert(h, [&](std::uint32_t id) {
        const TuplePartial& o = *copies[tuples[id].head].tuple;
        return same_values(o.group, t.group) && same_values(o.extra, t.extra);
      });
      const auto ci = static_cast<std::uint32_t>(copies.size());
      copies.push_back({&t});
      if (inserted) {
        tuples.push_back({t.rank, ci, ci});
        continue;
      }
      MergedTuple& m = tuples[ti];
      m.rank = std::min(m.rank, t.rank);
      copies[m.last].next = ci;
      m.last = ci;
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

  IdIndex group_index(tuples.size());
  std::vector<const TuplePartial*> group_example;  // first tuple of the group
  std::vector<AggState> group_states;              // [group * naggs + agg]
  std::vector<AggState> sub_total(naggs);
  TimeTreeFold fold(sub_total.data(), naggs);  // finish() leaves it reusable
  // Scratch of the multi-copy path, reused across tuples.
  std::vector<std::int64_t> days;
  std::vector<const AggState*> day_states;
  std::vector<std::uint32_t> dorder;
  std::vector<AggState> dup(naggs);
  for (const std::uint32_t ti : order) {
    const MergedTuple& m = tuples[ti];
    std::fill(sub_total.begin(), sub_total.end(), AggState{});
    const TuplePartial& t0 = *copies[m.head].tuple;
    if (m.head == m.last && strictly_ascending(t0.days)) {
      // One copy with ascending days: the sort below would be the identity.
      for (std::size_t i = 0; i < t0.days.size(); ++i) {
        fold.add(t0.days[i], t0.states.data() + i * naggs);
      }
    } else {
      // Sort the union's day entries ascending; a stable sort keeps
      // duplicate days in shard arrival order so the defensive in-place
      // fold below is deterministic.
      days.clear();
      day_states.clear();
      for (std::uint32_t ci = m.head; ci != TupleCopy::kEnd; ci = copies[ci].next) {
        const TuplePartial& t = *copies[ci].tuple;
        for (std::size_t i = 0; i < t.days.size(); ++i) {
          days.push_back(t.days[i]);
          day_states.push_back(t.states.data() + i * naggs);
        }
      }
      dorder.resize(days.size());
      for (std::size_t i = 0; i < dorder.size(); ++i) dorder[i] = static_cast<std::uint32_t>(i);
      std::stable_sort(dorder.begin(), dorder.end(), [&days](std::uint32_t a, std::uint32_t b) {
        return days[a] < days[b];
      });
      std::size_t i = 0;
      while (i < dorder.size()) {
        const std::int64_t day = days[dorder[i]];
        std::size_t j = i + 1;
        while (j < dorder.size() && days[dorder[j]] == day) ++j;
        if (j == i + 1) {
          fold.add(day, day_states[dorder[i]]);
        } else {
          std::fill(dup.begin(), dup.end(), AggState{});
          for (std::size_t x = i; x < j; ++x) {
            merge_states(dup.data(), day_states[dorder[x]], naggs);
          }
          fold.add(day, dup.data());
        }
        i = j;
      }
    }
    fold.finish();

    const auto [g, inserted] = group_index.insert(hash_values(0, t0.group), [&](std::uint32_t id) {
      return same_values(group_example[id]->group, t0.group);
    });
    if (inserted) {
      group_example.push_back(&t0);
      group_states.resize(group_states.size() + naggs);
    }
    merge_states(group_states.data() + std::size_t{g} * naggs, sub_total.data(), naggs);
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
