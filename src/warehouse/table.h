// In-memory columnar data warehouse.
//
// Stands in for the paper's IBM Netezza / MySQL warehouse: typed columns,
// predicate filtering, and grouped aggregation - the query shapes every
// XDMoD report in §4 reduces to. String columns are dictionary encoded.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace supremm::warehouse {

enum class ColType : std::uint8_t { kDouble, kInt64, kString };

/// One typed column. Strings are stored as codes into a per-column dictionary.
class Column {
 public:
  Column(std::string name, ColType type);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] ColType type() const noexcept { return type_; }
  [[nodiscard]] std::size_t size() const noexcept;

  void push_double(double v);
  void push_int64(std::int64_t v);
  void push_string(std::string_view v);

  // Bulk loaders for decoded archive chunks: append whole spans without the
  // per-value type branch, and install a prebuilt dictionary so string chunks
  // land as raw codes instead of re-hashing every value.
  void append_doubles(std::span<const double> vals);
  void append_int64s(std::span<const std::int64_t> vals);
  /// Append dictionary codes (string columns only). Every code must index
  /// into the installed dictionary.
  void append_codes(std::span<const std::int32_t> vals);
  /// Install the dictionary wholesale (string columns only; the column must
  /// not hold rows yet). Entries must be unique; a duplicate throws
  /// InvalidArgument and leaves the column as it was.
  void set_dict(std::vector<std::string> entries);

  [[nodiscard]] double as_double(std::size_t row) const;
  [[nodiscard]] std::int64_t as_int64(std::size_t row) const;
  [[nodiscard]] std::string_view as_string(std::size_t row) const;

  [[nodiscard]] std::span<const double> doubles() const;
  [[nodiscard]] std::span<const std::int64_t> int64s() const;
  /// Dictionary code of row (string columns only).
  [[nodiscard]] std::int32_t code(std::size_t row) const;
  /// All dictionary codes in row order (string columns only). The typed
  /// query kernels and the archive codec iterate this span instead of
  /// calling code(row) per row.
  [[nodiscard]] std::span<const std::int32_t> codes() const;
  [[nodiscard]] std::string_view decode(std::int32_t code) const;
  /// Dictionary code for `v`, or nullopt if the value never occurs in the
  /// column (string columns only). O(1); used for zone-map pruning of
  /// equality predicates without scanning rows.
  [[nodiscard]] std::optional<std::int32_t> find_code(std::string_view v) const;
  /// The dictionary in code order (string columns only).
  [[nodiscard]] std::span<const std::string> dict() const;

 private:
  std::string name_;
  ColType type_;
  std::vector<double> f64_;
  std::vector<std::int64_t> i64_;
  std::vector<std::int32_t> codes_;
  std::vector<std::string> dict_;
  /// Open-addressing index over dict_ (linear probing, load 1/2 to 3/4,
  /// at least 8 slots): each slot holds a code or -1, and a probe compares
  /// through dict_, so every distinct string is stored once plus at most
  /// 8 bytes of slots (past the first four entries).
  std::vector<std::int32_t> dict_slots_;
};

/// Per-chunk min/max/null-count summaries over a table, so queries and the
/// archive reader can skip whole chunks whose value range cannot satisfy a
/// predicate (classic zone maps / block-range index). String columns are
/// summarised by their dictionary-code range, which supports pruning
/// equality predicates once the literal is resolved to a code.
struct ZoneIndex {
  struct Range {
    double lo = 0.0;
    double hi = 0.0;
    std::uint32_t nulls = 0;  // NaN doubles in the chunk
  };

  std::size_t chunk_rows = 0;
  std::size_t chunks = 0;
  std::vector<std::vector<Range>> ranges;  // [column][chunk]
};

/// A named collection of equally sized columns.
class Table {
 public:
  Table(std::string name, std::vector<std::pair<std::string, ColType>> schema);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return columns_.size(); }

  [[nodiscard]] const Column& col(std::string_view name) const;
  [[nodiscard]] Column& col(std::string_view name);
  [[nodiscard]] bool has_col(std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<Column>& columns() const noexcept { return columns_; }

  /// Append one row; values must be pushed for every column via the builder.
  class RowBuilder {
   public:
    RowBuilder& set(std::string_view col, double v);
    RowBuilder& set(std::string_view col, std::int64_t v);
    RowBuilder& set(std::string_view col, std::string_view v);
    ~RowBuilder() noexcept(false);
    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

   private:
    friend class Table;
    explicit RowBuilder(Table& t);
    Table& table_;
    std::vector<bool> filled_;
  };
  [[nodiscard]] RowBuilder append() { return RowBuilder(*this); }

  /// Adopt rows pushed directly into the columns (bulk loaders, e.g. the
  /// archive reader, bypass RowBuilder). Throws if columns are ragged.
  void finalize_rows();

  /// (Re)build the zone index over the current rows. Call after the table is
  /// fully loaded and ordered; any later append invalidates it (and drops it).
  void rebuild_zone_index(std::size_t chunk_rows = 1024);
  [[nodiscard]] const ZoneIndex* zone_index() const noexcept {
    return zone_ ? &*zone_ : nullptr;
  }

  /// Append a fully-populated int64 column (one value per existing row).
  /// Drops the zone index; rebuild it afterwards if pruning is wanted.
  void add_int64_column(std::string name, std::vector<std::int64_t> values);

  /// Declare this table time-partitioned on `column` (an int64 timestamp)
  /// with the given partition subkey columns. Query::run() and the testkit
  /// oracle switch to the time-partitioned aggregation contract
  /// (DESIGN.md §16): per-(key tuple, subkey tuple, day) micro-cells
  /// accumulate sequentially in match order and fold day → week → month →
  /// quarter, with cross-dimension merges outermost — so answers are
  /// reproducible from materialized rollups at any bucket level.
  void set_time_partition(std::string column, std::vector<std::string> subkeys);
  /// Time-partition column name; empty when the table is not partitioned.
  [[nodiscard]] const std::string& time_partition() const noexcept { return tp_column_; }
  [[nodiscard]] const std::vector<std::string>& time_partition_subkeys() const noexcept {
    return tp_subkeys_;
  }

  /// Rows passing `pred(row_index)`.
  template <typename Pred>
  [[nodiscard]] std::vector<std::size_t> select(Pred pred) const {
    std::vector<std::size_t> out;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (pred(r)) out.push_back(r);
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::size_t rows_ = 0;
  std::optional<ZoneIndex> zone_;
  std::string tp_column_;
  std::vector<std::string> tp_subkeys_;
};

}  // namespace supremm::warehouse
