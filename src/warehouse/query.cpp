#include "warehouse/query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/error.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/simd.h"
#include "warehouse/aggstate.h"
#include "warehouse/id_index.h"
#include "warehouse/kernels.h"
#include "warehouse/partial.h"

namespace supremm::warehouse {

RowPredicate eq(std::string column, std::string value) {
  PredicateBounds b;
  b.column = column;
  b.equals = value;
  auto fn = [column = std::move(column), value = std::move(value)](const Table& t,
                                                                   std::size_t r) {
    return t.col(column).as_string(r) == value;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate ge(std::string column, double value) {
  PredicateBounds b;
  b.column = column;
  b.lo = value;
  auto fn = [column = std::move(column), value](const Table& t, std::size_t r) {
    return t.col(column).as_double(r) >= value;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate le(std::string column, double value) {
  PredicateBounds b;
  b.column = column;
  b.hi = value;
  auto fn = [column = std::move(column), value](const Table& t, std::size_t r) {
    return t.col(column).as_double(r) <= value;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate between(std::string column, double lo, double hi) {
  PredicateBounds b;
  b.column = column;
  b.lo = lo;
  b.hi = hi;
  auto fn = [column = std::move(column), lo, hi](const Table& t, std::size_t r) {
    const double v = t.col(column).as_double(r);
    return v >= lo && v <= hi;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate all_of(std::vector<RowPredicate> preds) {
  // A conjunction implies every conjunct's bounds, so the combined predicate
  // carries their concatenation; it stays exact only while every conjunct is.
  std::vector<PredicateBounds> bounds;
  bool exact = true;
  for (const auto& p : preds) {
    bounds.insert(bounds.end(), p.bounds().begin(), p.bounds().end());
    exact = exact && p.exact();
  }
  auto fn = [preds = std::move(preds)](const Table& t, std::size_t r) {
    for (const auto& p : preds) {
      if (!p(t, r)) return false;
    }
    return true;
  };
  return {std::move(fn), std::move(bounds), exact};
}

Query& Query::where(RowPredicate pred) {
  pred_ = std::move(pred);
  return *this;
}

Query& Query::group_by(std::vector<std::string> keys) {
  keys_ = std::move(keys);
  return *this;
}

Query& Query::aggregate(std::vector<AggSpec> aggs) {
  aggs_ = std::move(aggs);
  return *this;
}

Query& Query::threads(std::size_t n) {
  threads_ = n;
  return *this;
}

Query& Query::cancel_token(const common::CancelToken* token) {
  cancel_ = token;
  return *this;
}

namespace {

// Execution-chunk size when the table carries no zone index, and the
// canonical partial-aggregation segment length. Both are layout constants:
// the segment grid is laid over the ordered list of *matching* rows, so the
// aggregation arithmetic is independent of the scan chunking, the zone-map
// layout and the thread count.
constexpr std::size_t kExecChunkRows = 4096;
constexpr std::size_t kSegmentRows = 8192;
constexpr std::size_t kMaxGroupKeys = 4;

// canon_nan, default_agg_name, AggState and merge_state moved to
// warehouse/aggstate.h: the rollup layer must replicate this arithmetic
// byte-for-byte to keep materialized answers bit-identical to raw scans.

/// Typed, bounds-check-free view of a numeric column (int64 read as double,
/// matching Column::as_double).
struct NumRef {
  const double* f64 = nullptr;
  const std::int64_t* i64 = nullptr;

  [[nodiscard]] double value(std::size_t r) const {
    return f64 != nullptr ? f64[r] : static_cast<double>(i64[r]);
  }
};

NumRef numeric_ref(const Column& c) {
  if (c.type() == ColType::kString) {
    throw common::InvalidArgument("column " + std::string(c.name()) + " is not numeric");
  }
  NumRef ref;
  if (c.type() == ColType::kDouble) {
    ref.f64 = c.doubles().data();
  } else {
    ref.i64 = c.int64s().data();
  }
  return ref;
}

/// One group key column prepared for packing.
struct KeyRef {
  ColType type = ColType::kDouble;
  const double* f64 = nullptr;
  const std::int64_t* i64 = nullptr;
  const std::int32_t* codes = nullptr;
};

/// Fixed-width packed key tuple: dictionary code, raw int64 bits or the
/// double's exact bit pattern per key — never a decimal rendering, so
/// distinct doubles always land in distinct groups.
struct PackedKey {
  std::array<std::uint64_t, kMaxGroupKeys> w{};
  bool operator==(const PackedKey&) const = default;
};

/// Hasher of the word-array keys (PackedKey).
struct KeyHash {
  template <typename Key>
  std::size_t operator()(const Key& k) const noexcept {
    return common::WordsHash{}(k.w);
  }
};

/// A predicate conjunct compiled against column storage.
struct Kernel {
  NumRef num;                       // numeric range test
  const std::int32_t* codes = nullptr;  // string equality test
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::int32_t eq_code = 0;
  bool impossible = false;  // equality literal absent from the dictionary

  [[nodiscard]] bool pass(std::size_t r) const {
    if (codes != nullptr) return codes[r] == eq_code;
    const double v = num.value(r);
    return v >= lo && v <= hi;
  }
};

/// A conjunct usable for zone-map pruning: chunk survives unless its range
/// is disjoint from [lo, hi] for column `ci`.
struct PruneTest {
  std::size_t ci = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool fail_all = false;  // equality literal absent from the whole table
};

struct ChunkResult {
  std::vector<std::uint32_t> sel;  // matching row indices, ascending
  std::size_t rows_scanned = 0;
  bool pruned = false;
};

struct SegmentPartial {
  std::vector<PackedKey> keys;             // first-seen order
  std::vector<std::uint32_t> example_row;  // first matching row per group
  std::vector<AggState> states;            // [group * naggs + agg]
};

/// Aggregation input for one AggSpec, column refs resolved once per query.
struct AggRef {
  AggKind kind = AggKind::kSum;
  NumRef value;
  NumRef weight;
};

// int64 predicate kernels have no vector tier (no packed i64→f64), so every
// tier shares these scalar loops — same arithmetic as NumRef::value.

std::size_t filter_i64_range(const std::int64_t* v, std::uint32_t begin, std::uint32_t end,
                             double lo, double hi, std::uint32_t* out) {
  std::size_t cnt = 0;
  for (std::uint32_t r = begin; r < end; ++r) {
    const double x = static_cast<double>(v[r]);
    if (x >= lo && x <= hi) out[cnt++] = r;
  }
  return cnt;
}

std::size_t refine_i64_range(const std::int64_t* v, const std::uint32_t* sel, std::size_t n,
                             double lo, double hi, std::uint32_t* out) {
  std::size_t cnt = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t r = sel[j];
    const double x = static_cast<double>(v[r]);
    if (x >= lo && x <= hi) out[cnt++] = r;
  }
  return cnt;
}

void update_aggs(const std::vector<AggRef>& agg_refs, AggState* st, std::uint32_t r) {
  for (std::size_t a = 0; a < agg_refs.size(); ++a) {
    const AggRef& spec = agg_refs[a];
    AggState& s = st[a];
    ++s.n;
    if (spec.kind == AggKind::kCount) continue;
    const double v = spec.value.value(r);
    s.sum += v;
    s.mn = std::min(s.mn, v);
    s.mx = std::max(s.mx, v);
    if (spec.kind == AggKind::kWeightedMean) {
      const double w = spec.weight.value(r);
      s.wsum += w;
      s.wvsum += w * v;
    }
  }
}

/// Weighted-mean lanes when either column is int64: shared scalar fallback,
/// same per-element arithmetic as kernels::dot_lanes (mul, then add).
void dot_lanes_numref(const NumRef& value, const NumRef& weight, const std::uint32_t* rows,
                      std::uint32_t base, std::size_t n, double* wlanes, double* wvlanes) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t r = rows != nullptr ? rows[j] : base + static_cast<std::uint32_t>(j);
    const double w = weight.value(r);
    const double t = w * value.value(r);
    wlanes[j % kernels::kLanes] += w;
    wvlanes[j % kernels::kLanes] += t;
  }
}

/// Ungrouped (no group keys) segment aggregation: the canonical 8-lane
/// scheme from DESIGN.md §15. Element j of the segment's match slice updates
/// lane j % 8 and the lanes fold with the fixed trees in kernels.h, so every
/// ISA tier — and the oracle's independent implementation — produces the
/// same bits. Only the stats a kind emits are computed.
void aggregate_ungrouped(SegmentPartial& part, const std::vector<AggRef>& agg_refs,
                         const kernels::KernelTable& kt, const std::uint32_t* rows,
                         std::uint32_t base, std::size_t len) {
  const std::size_t naggs = agg_refs.size();
  part.keys.emplace_back();
  part.example_row.push_back(rows != nullptr ? rows[0] : base);
  part.states.resize(naggs);
  for (std::size_t a = 0; a < naggs; ++a) {
    const AggRef& spec = agg_refs[a];
    AggState& s = part.states[a];
    s.n = static_cast<std::int64_t>(len);
    double lanes[kernels::kLanes];
    switch (spec.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kMean:
        std::fill(std::begin(lanes), std::end(lanes), 0.0);
        if (spec.value.f64 != nullptr) {
          kt.sum_lanes(spec.value.f64, rows, base, len, lanes);
        } else {
          kernels::sum_lanes_i64(spec.value.i64, rows, base, len, lanes);
        }
        s.sum = kernels::fold_sum(lanes);
        break;
      case AggKind::kMin:
        std::fill(std::begin(lanes), std::end(lanes), std::numeric_limits<double>::infinity());
        if (spec.value.f64 != nullptr) {
          kt.min_lanes(spec.value.f64, rows, base, len, lanes);
        } else {
          kernels::min_lanes_i64(spec.value.i64, rows, base, len, lanes);
        }
        s.mn = kernels::fold_min(lanes);
        break;
      case AggKind::kMax:
        std::fill(std::begin(lanes), std::end(lanes), -std::numeric_limits<double>::infinity());
        if (spec.value.f64 != nullptr) {
          kt.max_lanes(spec.value.f64, rows, base, len, lanes);
        } else {
          kernels::max_lanes_i64(spec.value.i64, rows, base, len, lanes);
        }
        s.mx = kernels::fold_max(lanes);
        break;
      case AggKind::kWeightedMean: {
        double wlanes[kernels::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        double wvlanes[kernels::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        if (spec.value.f64 != nullptr && spec.weight.f64 != nullptr) {
          kt.dot_lanes(spec.value.f64, spec.weight.f64, rows, base, len, wlanes, wvlanes);
        } else {
          dot_lanes_numref(spec.value, spec.weight, rows, base, len, wlanes, wvlanes);
        }
        s.wsum = kernels::fold_sum(wlanes);
        s.wvsum = kernels::fold_sum(wvlanes);
        break;
      }
    }
  }
}

/// Radix-partitioned hash group-by for one segment (the high-cardinality
/// path). Rows scatter stably into 2^6 buckets on the low hash bits — every
/// row of a group lands in the same bucket — then each bucket groups through
/// a small open-addressing table, so probe chains stay short and cache-local
/// with no per-row node allocation. Because the scatter is stable, rows of a
/// group accumulate in ascending match order (the exact sequential order the
/// contract fixes), and sorting the finished groups by first-match position
/// restores canonical first-seen order, independent of bucket layout.
void radix_group_segment(SegmentPartial& part, const std::vector<KeyRef>& key_refs,
                         const std::vector<AggRef>& agg_refs, const std::uint32_t* rows,
                         std::uint32_t base, std::size_t len) {
  constexpr std::size_t kRadixBits = 6;
  constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t naggs = agg_refs.size();

  const auto row_of = [rows, base](std::size_t j) {
    return rows != nullptr ? rows[j] : base + static_cast<std::uint32_t>(j);
  };

  // Pass 1: pack keys, hash, count buckets.
  std::vector<PackedKey> keys(len);
  std::vector<std::uint64_t> hashes(len);
  std::array<std::uint32_t, kRadixBuckets + 1> offsets{};
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint32_t r = row_of(j);
    PackedKey key;
    for (std::size_t k = 0; k < key_refs.size(); ++k) {
      const KeyRef& ref = key_refs[k];
      switch (ref.type) {
        case ColType::kString:
          key.w[k] = static_cast<std::uint32_t>(ref.codes[r]);
          break;
        case ColType::kInt64:
          key.w[k] = static_cast<std::uint64_t>(ref.i64[r]);
          break;
        case ColType::kDouble:
          key.w[k] = std::bit_cast<std::uint64_t>(ref.f64[r]);
          break;
      }
    }
    keys[j] = key;
    const std::uint64_t h = common::hash_words(key.w);
    hashes[j] = h;
    ++offsets[(h & (kRadixBuckets - 1)) + 1];
  }
  std::uint32_t max_bucket = 0;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    max_bucket = std::max(max_bucket, offsets[b + 1]);
    offsets[b + 1] += offsets[b];
  }

  // Pass 2: stable scatter of segment positions into bucket order.
  std::vector<std::uint32_t> order(len);
  std::array<std::uint32_t, kRadixBuckets> cursor;
  std::copy(offsets.begin(), offsets.begin() + kRadixBuckets, cursor.begin());
  for (std::size_t j = 0; j < len; ++j) {
    order[cursor[hashes[j] & (kRadixBuckets - 1)]++] = static_cast<std::uint32_t>(j);
  }

  // Pass 3: per-bucket open addressing; groups carry their first position.
  std::size_t table_size = 8;
  while (table_size < static_cast<std::size_t>(max_bucket) * 2) table_size <<= 1;
  std::vector<std::uint32_t> slots(table_size);
  std::vector<PackedKey> gkeys;
  std::vector<std::uint32_t> gfirst;  // first segment position of the group
  std::vector<AggState> gstates;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    const std::uint32_t bb = offsets[b], be = offsets[b + 1];
    if (bb == be) continue;
    std::fill(slots.begin(), slots.end(), kEmpty);
    const std::size_t mask = table_size - 1;
    for (std::uint32_t o = bb; o < be; ++o) {
      const std::uint32_t j = order[o];
      const PackedKey& key = keys[j];
      std::size_t idx = (hashes[j] >> kRadixBits) & mask;
      std::uint32_t g;
      while (true) {
        g = slots[idx];
        if (g == kEmpty) {
          g = static_cast<std::uint32_t>(gkeys.size());
          slots[idx] = g;
          gkeys.push_back(key);
          gfirst.push_back(j);
          gstates.resize(gstates.size() + naggs);
          break;
        }
        if (gkeys[g] == key) break;
        idx = (idx + 1) & mask;
      }
      update_aggs(agg_refs, gstates.data() + std::size_t{g} * naggs, row_of(j));
    }
  }

  // Canonical order: sort groups by first-seen position within the segment.
  std::vector<std::uint32_t> gorder(gkeys.size());
  for (std::size_t g = 0; g < gorder.size(); ++g) gorder[g] = static_cast<std::uint32_t>(g);
  std::sort(gorder.begin(), gorder.end(),
            [&gfirst](std::uint32_t a, std::uint32_t b) { return gfirst[a] < gfirst[b]; });
  part.keys.reserve(gorder.size());
  part.example_row.reserve(gorder.size());
  part.states.reserve(gorder.size() * naggs);
  for (const std::uint32_t g : gorder) {
    part.keys.push_back(gkeys[g]);
    part.example_row.push_back(row_of(gfirst[g]));
    part.states.insert(part.states.end(), gstates.begin() + std::size_t{g} * naggs,
                       gstates.begin() + (std::size_t{g} + 1) * naggs);
  }
}

/// Flat word-key index for the time-partitioned contract's micro-cell,
/// sub-tuple and group keys: `width` words per key, stored id-major in one
/// vector behind an IdIndex.
class WordIndex {
 public:
  WordIndex(std::size_t width, std::size_t expected) : width_(width), index_(expected) {
    keys_.reserve(expected * width);
  }

  /// Id of the `width`-word key, inserted with the next id when absent.
  std::pair<std::uint32_t, bool> insert(const std::uint64_t* key) {
    const std::uint64_t h = common::hash_words(std::span<const std::uint64_t>(key, width_));
    const auto res = index_.insert(h, [&](std::uint32_t id) {
      return std::equal(key, key + width_, this->key(id));
    });
    if (res.second) keys_.insert(keys_.end(), key, key + width_);
    return res;
  }

  [[nodiscard]] const std::uint64_t* key(std::uint32_t id) const {
    return keys_.data() + std::size_t{id} * width_;
  }

 private:
  std::size_t width_;
  IdIndex index_;
  std::vector<std::uint64_t> keys_;  // [id * width + word]
};

std::uint64_t key_ref_word(const KeyRef& ref, std::uint32_t r) {
  switch (ref.type) {
    case ColType::kString:
      return static_cast<std::uint32_t>(ref.codes[r]);
    case ColType::kInt64:
      return static_cast<std::uint64_t>(ref.i64[r]);
    case ColType::kDouble:
      return std::bit_cast<std::uint64_t>(ref.f64[r]);
  }
  return 0;
}

/// Planning + phase 1 of Query::run, shared with run_partial(): compile the
/// predicate into typed kernels, zone-prune, and produce the ordered match
/// list plus scan accounting.
struct ScanResult {
  QueryStats st;
  const kernels::KernelTable* kt = nullptr;  // ISA tier pinned for the whole run
  std::vector<std::uint32_t> matches;  // empty on the identity fast path
  bool identity = false;
  std::size_t total_matches = 0;
};

ScanResult scan_phase(const Table& table, const std::optional<RowPredicate>& pred,
                      std::size_t threads, const common::CancelToken* cancel) {
  const std::size_t nrows = table.rows();
  if (nrows > std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("query: table exceeds 2^32 rows");
  }
  const auto check_cancel = [cancel] {
    if (cancel != nullptr && cancel->stop_requested()) {
      throw common::Cancelled("query abandoned at safe point");
    }
  };

  // Predicate plan. Exact predicates compile each conjunct into a typed
  // kernel; opaque ones fall back to the closure per row. Bounds over
  // existing columns additionally become zone-map prune tests.
  const bool have_pred = pred.has_value();
  const bool exact = have_pred && pred->exact();
  std::vector<Kernel> kernels;
  if (exact) {
    for (const auto& b : pred->bounds()) {
      const Column& c = table.col(b.column);
      Kernel k;
      if (b.equals) {
        if (c.type() != ColType::kString) {
          throw common::InvalidArgument("column " + b.column + " not string");
        }
        k.codes = c.codes().data();
        if (const auto code = c.find_code(*b.equals)) {
          k.eq_code = *code;
        } else {
          k.impossible = true;
        }
      } else {
        k.num = numeric_ref(c);
        k.lo = b.lo;
        k.hi = b.hi;
      }
      kernels.push_back(k);
    }
  }

  const ZoneIndex* zi = table.zone_index();
  const bool prune =
      have_pred && zi != nullptr && !pred->bounds().empty() && zi->chunks > 0;
  std::vector<PruneTest> prune_tests;
  if (prune) {
    for (const auto& b : pred->bounds()) {
      if (!table.has_col(b.column)) continue;
      std::size_t ci = 0;
      while (table.columns()[ci].name() != b.column) ++ci;
      const Column& c = table.columns()[ci];
      PruneTest t;
      t.ci = ci;
      if (b.equals) {
        if (c.type() != ColType::kString) continue;
        if (const auto code = c.find_code(*b.equals)) {
          t.lo = t.hi = static_cast<double>(*code);
        } else {
          t.fail_all = true;  // value absent from the whole table
        }
      } else {
        if (c.type() == ColType::kString) continue;
        t.lo = b.lo;
        t.hi = b.hi;
      }
      prune_tests.push_back(t);
    }
  }

  const std::size_t chunk_rows = prune ? zi->chunk_rows : kExecChunkRows;
  const std::size_t nchunks = nrows == 0 ? 0 : (nrows + chunk_rows - 1) / chunk_rows;
  ScanResult res;
  QueryStats& st = res.st;
  if (prune) st.chunks_total = zi->chunks;

  // ISA tier pinned once per run. The AVX2 kernels gather through row
  // indices as signed 32-bit lanes, so a table past 2^31 rows takes the
  // scalar table — legal at any time because every tier is bit-identical.
  res.kt = nrows > (std::size_t{1} << 31) ? &kernels::table_for(common::simd::Tier::kScalar)
                                          : &kernels::active();
  const kernels::KernelTable& kt = *res.kt;

  // Per-run scan state, hoisted out of the pool workers: an equality literal
  // absent from its dictionary kills every chunk at once, and zone-map prune
  // decisions depend only on the chunk grid, so both are derived here once
  // instead of being re-tested inside every worker invocation.
  bool impossible = false;
  for (const auto& k : kernels) impossible = impossible || k.impossible;
  std::vector<std::uint8_t> chunk_pruned;
  if (prune) {
    chunk_pruned.assign(nchunks, 0);
    for (std::size_t ch = 0; ch < nchunks; ++ch) {
      for (const auto& t : prune_tests) {
        const ZoneIndex::Range& range = zi->ranges[t.ci][ch];
        if (t.fail_all || range.hi < t.lo || range.lo > t.hi) {
          chunk_pruned[ch] = 1;
          break;
        }
      }
    }
  }

  // Without a predicate every row matches and match index == row index, so
  // the selection vectors and the concatenated match list are pure memory
  // traffic — skip them and let phase 2 address rows directly.
  res.identity = !have_pred;
  std::vector<ChunkResult> chunks(res.identity ? 0 : nchunks);
  if (!res.identity) {
    common::pool_run(nchunks, threads, 0, [&](std::size_t ch) {
      check_cancel();
      ChunkResult& cres = chunks[ch];
      if (!chunk_pruned.empty() && chunk_pruned[ch] != 0) {
        cres.pruned = true;
        return;
      }
      const std::size_t begin = ch * chunk_rows;
      const std::size_t end = std::min(nrows, begin + chunk_rows);
      cres.rows_scanned = end - begin;
      if (exact && impossible) return;  // scanned, nothing matches
      auto& sel = cres.sel;
      if (exact) {
        sel.resize(end - begin);
        const auto b32 = static_cast<std::uint32_t>(begin);
        const auto e32 = static_cast<std::uint32_t>(end);
        std::size_t cnt = 0;
        if (kernels.empty()) {
          for (std::uint32_t r = b32; r < e32; ++r) sel[cnt++] = r;
        } else {
          const Kernel& k0 = kernels[0];
          if (k0.codes != nullptr) {
            cnt = kt.filter_codes_eq(k0.codes, b32, e32, k0.eq_code, sel.data());
          } else if (k0.num.f64 != nullptr) {
            cnt = kt.filter_f64_range(k0.num.f64, b32, e32, k0.lo, k0.hi, sel.data());
          } else {
            cnt = filter_i64_range(k0.num.i64, b32, e32, k0.lo, k0.hi, sel.data());
          }
          for (std::size_t k = 1; k < kernels.size() && cnt != 0; ++k) {
            const Kernel& kn = kernels[k];
            if (kn.codes != nullptr) {
              cnt = kt.refine_codes_eq(kn.codes, sel.data(), cnt, kn.eq_code, sel.data());
            } else if (kn.num.f64 != nullptr) {
              cnt = kt.refine_f64_range(kn.num.f64, sel.data(), cnt, kn.lo, kn.hi, sel.data());
            } else {
              cnt = refine_i64_range(kn.num.i64, sel.data(), cnt, kn.lo, kn.hi, sel.data());
            }
          }
        }
        sel.resize(cnt);
      } else {
        for (std::size_t r = begin; r < end; ++r) {
          if ((*pred)(table, r)) sel.push_back(static_cast<std::uint32_t>(r));
        }
      }
    });
  }

  if (res.identity) {
    st.rows_scanned = nrows;
    res.total_matches = nrows;
  } else {
    for (const auto& c : chunks) {
      if (c.pruned) ++st.chunks_pruned;
      st.rows_scanned += c.rows_scanned;
      res.total_matches += c.sel.size();
    }
    res.matches.reserve(res.total_matches);
    for (const auto& c : chunks) {
      res.matches.insert(res.matches.end(), c.sel.begin(), c.sel.end());
    }
  }
  st.rows_matched = res.total_matches;
  return res;
}

KeyRef make_key_ref(const Column& c) {
  KeyRef ref;
  ref.type = c.type();
  switch (c.type()) {
    case ColType::kDouble:
      ref.f64 = c.doubles().data();
      break;
    case ColType::kInt64:
      ref.i64 = c.int64s().data();
      break;
    case ColType::kString:
      ref.codes = c.codes().data();
      break;
  }
  return ref;
}

std::vector<AggRef> make_agg_refs(const Table& table, const std::vector<AggSpec>& aggs) {
  std::vector<AggRef> refs;
  refs.reserve(aggs.size());
  for (const auto& a : aggs) {
    AggRef ref;
    ref.kind = a.kind;
    if (a.kind != AggKind::kCount) {
      ref.value = numeric_ref(table.col(a.column));
      if (a.kind == AggKind::kWeightedMean) ref.weight = numeric_ref(table.col(a.weight));
    }
    refs.push_back(ref);
  }
  return refs;
}

partial::KeyValue make_key_value(const Column& c, std::size_t r) {
  partial::KeyValue v;
  v.type = c.type();
  switch (c.type()) {
    case ColType::kString:
      v.str = std::string(c.as_string(r));
      break;
    case ColType::kInt64:
      v.i64 = c.as_int64(r);
      break;
    case ColType::kDouble:
      v.bits = std::bit_cast<std::uint64_t>(c.as_double(r));
      break;
  }
  return v;
}

}  // namespace

namespace partial {

// Phase 2 of the time-partitioned contract (DESIGN.md §16), extracted from
// the executor so a federation shard can ship the intermediate state.
// Values accumulate into micro-cells keyed by (group keys, partition
// subkeys, end-day) purely sequentially in match order — a cell is never
// split across segments or threads — then cells bucket into groups and,
// within each group, into partition sub-tuples; both orders inherit
// first-seen from the cells (= ascending first match position). Each
// sub-tuple's day cells come out sorted ascending, ready for the calendar
// tree fold (fold_groups locally, merge_partials at a coordinator). The
// cross-dimension merge stays outermost so the same numbers are
// reproducible from materialized rollup cells at ANY bucket level: a week
// cell is exactly the tree-fold of its day cells.
Collected collect(const Table& table, const std::vector<std::string>& group_by,
                  const std::vector<AggSpec>& aggs, const std::uint32_t* match_rows,
                  std::size_t total_matches, const std::string& rank_column,
                  const common::CancelToken* cancel) {
  if (table.time_partition().empty()) {
    throw common::InvalidArgument("partial collect: table has no time partition");
  }
  if (group_by.size() > kMaxGroupKeys) {
    throw common::InvalidArgument("query supports at most 4 group keys");
  }
  const auto check_cancel = [cancel] {
    if (cancel != nullptr && cancel->stop_requested()) {
      throw common::Cancelled("query abandoned at safe point");
    }
  };

  const std::size_t naggs = aggs.size();
  std::vector<KeyRef> key_refs;
  key_refs.reserve(group_by.size());
  for (const auto& k : group_by) key_refs.push_back(make_key_ref(table.col(k)));
  const std::vector<AggRef> agg_refs = make_agg_refs(table, aggs);

  const Column& tp = table.col(table.time_partition());
  const std::int64_t* end_vals = tp.int64s().data();

  std::vector<std::string> extra_names;  // partition subkeys not already group keys
  std::vector<KeyRef> extra_refs;
  for (const auto& name : table.time_partition_subkeys()) {
    if (std::find(group_by.begin(), group_by.end(), name) != group_by.end()) continue;
    extra_names.push_back(name);
    extra_refs.push_back(make_key_ref(table.col(name)));
  }
  const std::size_t nkeys = key_refs.size();
  const std::size_t nextra = extra_refs.size();
  if (nkeys + nextra + 1 > 8) {
    throw common::InvalidArgument("time-partitioned query: key + subkey tuple too wide");
  }

  const std::int64_t* rank_vals = nullptr;
  if (!rank_column.empty()) {
    const Column& rc = table.col(rank_column);
    if (rc.type() != ColType::kInt64) {
      throw common::InvalidArgument("partial collect: rank column " + rank_column +
                                    " must be int64");
    }
    rank_vals = rc.int64s().data();
  }

  // Pass 1: sequential micro-cell accumulation in match order. A cell key
  // is the group-key words, then the partition-subkey words not already
  // group keys, then the day index.
  struct Cell {
    std::uint32_t example_row = 0;  // first matching row of the cell
    std::int64_t day = 0;
    std::int64_t rank = 0;  // min rank-column value over the cell's rows
  };
  const std::size_t nsub = nkeys + nextra;  // words of a sub-tuple key
  WordIndex cell_index(nsub + 1, total_matches);
  std::vector<Cell> cells;              // first-seen order
  std::vector<AggState> cell_states;    // [cell * naggs + agg]
  std::array<std::uint64_t, 8> key{};
  for (std::size_t j = 0; j < total_matches; ++j) {
    if ((j & (kSegmentRows - 1)) == 0) check_cancel();
    const std::uint32_t r =
        match_rows != nullptr ? match_rows[j] : static_cast<std::uint32_t>(j);
    std::size_t k = 0;
    for (const auto& ref : key_refs) key[k++] = key_ref_word(ref, r);
    for (const auto& ref : extra_refs) key[k++] = key_ref_word(ref, r);
    const std::int64_t day = end_day_index(end_vals[r]);
    key[k] = static_cast<std::uint64_t>(day);
    const auto [c, inserted] = cell_index.insert(key.data());
    if (inserted) {
      cells.push_back({r, day, rank_vals != nullptr ? rank_vals[r] : 0});
      cell_states.resize(cell_states.size() + naggs);
    } else if (rank_vals != nullptr) {
      Cell& cell = cells[c];
      cell.rank = std::min(cell.rank, rank_vals[r]);
    }
    update_aggs(agg_refs, cell_states.data() + std::size_t{c} * naggs, r);
  }
  check_cancel();

  // Pass 2: bucket cells into groups and sub-tuples, first-seen order. The
  // group and sub-tuple keys are prefixes of the cell key.
  WordIndex sub_index(nsub, cells.size());
  WordIndex group_index(nkeys, cells.size());
  std::vector<std::uint32_t> sub_of_cell(cells.size());
  std::vector<std::uint32_t> sub_begin{0};  // cells per sub-tuple, then offsets

  Collected out;
  out.naggs = naggs;
  for (const auto& k : group_by) out.key_schema.emplace_back(k, table.col(k).type());
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    const std::uint64_t* ckey = cell_index.key(c);
    const auto [g, ginserted] = group_index.insert(ckey);
    if (ginserted) {
      out.group_example_row.push_back(cells[c].example_row);
      out.groups.emplace_back();
    }
    const auto [sub, sinserted] = sub_index.insert(ckey);
    if (sinserted) {
      sub_begin.push_back(0);
      out.groups[g].push_back(sub);
    }
    sub_of_cell[c] = sub;
    ++sub_begin[sub + 1];
  }

  // Pass 3: materialize one TuplePartial per sub-tuple, day cells ascending.
  // A counting scatter lists each sub's cells contiguously, ascending by
  // cell id; the day sort then orders them (days are unique within a sub).
  const std::size_t nsubs = sub_begin.size() - 1;
  for (std::size_t s = 0; s < nsubs; ++s) sub_begin[s + 1] += sub_begin[s];
  std::vector<std::uint32_t> by_sub(cells.size());
  std::vector<std::uint32_t> cursor(sub_begin.begin(), sub_begin.end() - 1);
  for (std::uint32_t c = 0; c < cells.size(); ++c) by_sub[cursor[sub_of_cell[c]]++] = c;

  std::vector<const Column*> group_cols;
  for (const auto& k : group_by) group_cols.push_back(&table.col(k));
  std::vector<const Column*> extra_cols;
  for (const auto& name : extra_names) extra_cols.push_back(&table.col(name));

  out.tuples.resize(nsubs);
  for (std::size_t s = 0; s < nsubs; ++s) {
    const auto cs_begin = by_sub.begin() + sub_begin[s];
    const auto cs_end = by_sub.begin() + sub_begin[s + 1];
    std::sort(cs_begin, cs_end, [&cells](std::uint32_t a, std::uint32_t b) {
      return cells[a].day < cells[b].day;
    });
    TuplePartial& t = out.tuples[s];
    const std::uint32_t r0 = cells[*cs_begin].example_row;
    t.group.reserve(nkeys);
    for (const Column* col : group_cols) t.group.push_back(make_key_value(*col, r0));
    t.extra.reserve(nextra);
    for (const Column* col : extra_cols) t.extra.push_back(make_key_value(*col, r0));
    t.rank = rank_vals != nullptr ? cells[*cs_begin].rank : static_cast<std::int64_t>(s);
    const auto ndays = static_cast<std::size_t>(cs_end - cs_begin);
    t.days.reserve(ndays);
    t.states.reserve(ndays * naggs);
    for (auto it = cs_begin; it != cs_end; ++it) {
      const std::uint32_t c = *it;
      if (rank_vals != nullptr) t.rank = std::min(t.rank, cells[c].rank);
      t.days.push_back(cells[c].day);
      t.states.insert(t.states.end(), cell_states.begin() + std::size_t{c} * naggs,
                      cell_states.begin() + (std::size_t{c} + 1) * naggs);
    }
  }
  return out;
}

std::vector<AggState> fold_groups(const Collected& c) {
  const std::size_t naggs = c.naggs;
  std::vector<AggState> sub_states(c.tuples.size() * naggs);
  for (std::size_t s = 0; s < c.tuples.size(); ++s) {
    const TuplePartial& t = c.tuples[s];
    TimeTreeFold fold(sub_states.data() + s * naggs, naggs);
    for (std::size_t i = 0; i < t.days.size(); ++i) {
      fold.add(t.days[i], t.states.data() + i * naggs);
    }
    fold.finish();
  }
  std::vector<AggState> states(c.groups.size() * naggs);
  for (std::size_t g = 0; g < c.groups.size(); ++g) {
    for (const std::uint32_t s : c.groups[g]) {
      merge_states(states.data() + g * naggs, sub_states.data() + std::size_t{s} * naggs, naggs);
    }
  }
  return states;
}

}  // namespace partial

Table Query::run() const {
  if (aggs_.empty()) throw common::InvalidArgument("query without aggregations");
  if (keys_.size() > kMaxGroupKeys) {
    throw common::InvalidArgument("query supports at most 4 group keys");
  }
  const std::size_t nrows = table_.rows();
  if (nrows > std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("query: table exceeds 2^32 rows");
  }

  // Output schema: keys (typed like the source) then one double per agg
  // (count as int64).
  std::vector<std::pair<std::string, ColType>> schema;
  for (const auto& k : keys_) schema.emplace_back(k, table_.col(k).type());
  add_agg_columns(schema, aggs_);
  Table out(table_.name() + "_agg", std::move(schema));

  // --- plan: resolve every column reference once --------------------------
  std::vector<KeyRef> key_refs;
  key_refs.reserve(keys_.size());
  for (const auto& k : keys_) key_refs.push_back(make_key_ref(table_.col(k)));
  const std::vector<AggRef> agg_refs = make_agg_refs(table_, aggs_);

  // Cancellation safe point: polled once per scan chunk and once per
  // aggregation segment (coarse enough to stay off the per-row hot path).
  // Throwing tears the run down through the pool's rethrow; stats_ is reset
  // below and only assigned on success, so no partial accounting escapes.
  const common::CancelToken* cancel = cancel_;
  const auto check_cancel = [cancel] {
    if (cancel != nullptr && cancel->stop_requested()) {
      throw common::Cancelled("query abandoned at safe point");
    }
  };

  // --- phase 1: per-chunk selection vectors (shared with run_partial) -----
  stats_ = QueryStats{};  // visible stats stay zeroed until the run completes
  ScanResult scan = scan_phase(table_, pred_, threads_, cancel_);
  QueryStats st = scan.st;
  const std::size_t total_matches = scan.total_matches;
  const std::uint32_t* match_ptr = scan.identity ? nullptr : scan.matches.data();
  const kernels::KernelTable& kt = *scan.kt;

  // --- phase 2 ------------------------------------------------------------
  const std::size_t naggs = aggs_.size();
  std::vector<std::size_t> group_example_row;  // first-seen group order
  std::vector<AggState> states;                // [group * naggs + agg]

  if (!table_.time_partition().empty()) {
    // Time-partitioned contract: sequential micro-cell accumulation + the
    // calendar tree fold (rollup-reproducible; see partial::collect).
    const partial::Collected collected =
        partial::collect(table_, keys_, aggs_, match_ptr, total_matches,
                         /*rank_column=*/std::string(), cancel_);
    group_example_row = collected.group_example_row;
    states = partial::fold_groups(collected);
  } else {
  // Canonical segment contract: partial aggregation over match-list segments.
  const std::size_t nsegs =
      total_matches == 0 ? 0 : (total_matches + kSegmentRows - 1) / kSegmentRows;

  // Dense fast path for the common report shape: every group key is a
  // dictionary code (validated non-negative, < dict size) and the combined
  // code domain is small, so group slots are addressed directly by combined
  // code — no per-row hashing. Slots still record first-seen order per
  // segment, so group order and the merge are unchanged.
  constexpr std::size_t kMaxDenseGroups = std::size_t{1} << 14;
  constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
  bool dense = !key_refs.empty();  // no keys → the vectorized ungrouped path
  std::size_t dense_domain = 1;
  std::array<std::size_t, kMaxGroupKeys> dense_mult{};
  for (std::size_t k = 0; k < key_refs.size(); ++k) {
    if (key_refs[k].type != ColType::kString) {
      dense = false;
      break;
    }
    dense_mult[k] = dense_domain;
    dense_domain *= table_.col(keys_[k]).dict().size();
    if (dense_domain > kMaxDenseGroups) {
      dense = false;
      break;
    }
  }

  std::vector<SegmentPartial> partials(nsegs);
  common::pool_run(nsegs, threads_, 0, [&](std::size_t seg) {
    check_cancel();
    SegmentPartial& part = partials[seg];
    const std::size_t begin = seg * kSegmentRows;
    const std::size_t end = std::min(total_matches, begin + kSegmentRows);
    const std::size_t len = end - begin;
    const std::uint32_t* rows = match_ptr != nullptr ? match_ptr + begin : nullptr;
    const auto base = static_cast<std::uint32_t>(begin);
    if (key_refs.empty()) {
      aggregate_ungrouped(part, agg_refs, kt, rows, base, len);
      return;
    }
    if (dense) {
      std::vector<std::uint32_t> slot(dense_domain, kNoGroup);
      for (std::size_t j = 0; j < len; ++j) {
        const std::uint32_t r = rows != nullptr ? rows[j] : base + static_cast<std::uint32_t>(j);
        std::size_t idx = 0;
        for (std::size_t k = 0; k < key_refs.size(); ++k) {
          idx += static_cast<std::size_t>(key_refs[k].codes[r]) * dense_mult[k];
        }
        std::uint32_t g = slot[idx];
        if (g == kNoGroup) {
          g = static_cast<std::uint32_t>(part.keys.size());
          slot[idx] = g;
          PackedKey key;
          for (std::size_t k = 0; k < key_refs.size(); ++k) {
            key.w[k] = static_cast<std::uint32_t>(key_refs[k].codes[r]);
          }
          part.keys.push_back(key);
          part.example_row.push_back(r);
          part.states.resize(part.states.size() + naggs);
        }
        update_aggs(agg_refs, part.states.data() + std::size_t{g} * naggs, r);
      }
      return;
    }
    radix_group_segment(part, key_refs, agg_refs, rows, base, len);
  });

  // --- merge partials in segment order (deterministic group order) --------
  check_cancel();
  std::unordered_map<PackedKey, std::size_t, KeyHash> groups;
  for (const auto& part : partials) {
    for (std::size_t g = 0; g < part.keys.size(); ++g) {
      const auto [it, inserted] = groups.emplace(part.keys[g], group_example_row.size());
      if (inserted) {
        group_example_row.push_back(part.example_row[g]);
        states.resize(states.size() + naggs);
      }
      merge_states(states.data() + it->second * naggs, part.states.data() + g * naggs, naggs);
    }
  }
  }  // end canonical segment contract

  // --- emit group rows in first-seen order --------------------------------
  for (std::size_t g = 0; g < group_example_row.size(); ++g) {
    auto row = out.append();
    const std::size_t src = group_example_row[g];
    for (const auto& k : keys_) {
      const Column& c = table_.col(k);
      switch (c.type()) {
        case ColType::kString:
          row.set(k, c.as_string(src));
          break;
        case ColType::kInt64:
          row.set(k, c.as_int64(src));
          break;
        case ColType::kDouble:
          row.set(k, c.as_double(src));
          break;
      }
    }
    set_aggs(row, aggs_, states.data() + g * naggs);
  }
  stats_ = st;
  return out;
}

partial::Partial Query::run_partial(const std::string& rank_column) const {
  if (aggs_.empty()) throw common::InvalidArgument("query without aggregations");
  if (keys_.size() > kMaxGroupKeys) {
    throw common::InvalidArgument("query supports at most 4 group keys");
  }
  stats_ = QueryStats{};
  ScanResult scan = scan_phase(table_, pred_, threads_, cancel_);
  partial::Collected col = partial::collect(
      table_, keys_, aggs_, scan.identity ? nullptr : scan.matches.data(),
      scan.total_matches, rank_column, cancel_);
  partial::Partial p;
  p.stats = scan.st;
  p.key_schema = std::move(col.key_schema);
  p.naggs = col.naggs;
  p.tuples = std::move(col.tuples);
  stats_ = p.stats;
  return p;
}

}  // namespace supremm::warehouse
