#include "warehouse/table.h"

#include <algorithm>
#include <functional>

#include "common/error.h"

namespace supremm::warehouse {

namespace {

constexpr std::int32_t kNoCode = -1;

/// Slot of `v` in a dictionary index: the slot holding its code, or the
/// empty slot where it belongs. `slots` must hold at least one empty slot.
/// Any capacity works: the 32-bit hash scales onto [0, capacity) by a
/// multiply-shift instead of a power-of-two mask.
std::size_t dict_probe(const std::vector<std::int32_t>& slots,
                       const std::vector<std::string>& dict, std::string_view v) {
  const std::uint64_t h = std::hash<std::string_view>{}(v);
  const auto h32 = static_cast<std::uint32_t>(h ^ (h >> 32));
  const std::size_t cap = slots.size();
  std::size_t i = static_cast<std::size_t>((std::uint64_t{h32} * cap) >> 32);
  while (true) {
    const std::int32_t c = slots[i];
    if (c == kNoCode || dict[static_cast<std::size_t>(c)] == v) return i;
    if (++i == cap) i = 0;
  }
}

/// Index `dict` into `2 * dict.size()` slots (at least 8): load 1/2 after
/// every rebuild, so an index never spends more than 8 bytes per entry.
/// Returns false on a duplicate entry, leaving `slots` partly built.
bool build_dict_slots(const std::vector<std::string>& dict, std::vector<std::int32_t>& slots) {
  slots.assign(std::max<std::size_t>(8, 2 * dict.size()), kNoCode);
  for (std::size_t code = 0; code < dict.size(); ++code) {
    const std::size_t i = dict_probe(slots, dict, dict[code]);
    if (slots[i] != kNoCode) return false;
    slots[i] = static_cast<std::int32_t>(code);
  }
  return true;
}

}  // namespace

Column::Column(std::string name, ColType type) : name_(std::move(name)), type_(type) {}

std::size_t Column::size() const noexcept {
  switch (type_) {
    case ColType::kDouble:
      return f64_.size();
    case ColType::kInt64:
      return i64_.size();
    case ColType::kString:
      return codes_.size();
  }
  return 0;
}

void Column::push_double(double v) {
  if (type_ != ColType::kDouble) throw common::InvalidArgument("column " + name_ + " not double");
  f64_.push_back(v);
}

void Column::push_int64(std::int64_t v) {
  if (type_ != ColType::kInt64) throw common::InvalidArgument("column " + name_ + " not int64");
  i64_.push_back(v);
}

void Column::push_string(std::string_view v) {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  if (dict_slots_.empty()) dict_slots_.assign(8, kNoCode);
  std::size_t i = dict_probe(dict_slots_, dict_, v);
  if (dict_slots_[i] == kNoCode) {
    // Keep the load at most 3/4 after the insert; a rebuild halves it.
    if (4 * (dict_.size() + 1) > 3 * dict_slots_.size()) {
      dict_.emplace_back(v);
      build_dict_slots(dict_, dict_slots_);
      codes_.push_back(static_cast<std::int32_t>(dict_.size() - 1));
      return;
    }
    dict_slots_[i] = static_cast<std::int32_t>(dict_.size());
    dict_.emplace_back(v);
  }
  codes_.push_back(dict_slots_[i]);
}

void Column::append_doubles(std::span<const double> vals) {
  if (type_ != ColType::kDouble) throw common::InvalidArgument("column " + name_ + " not double");
  f64_.insert(f64_.end(), vals.begin(), vals.end());
}

void Column::append_int64s(std::span<const std::int64_t> vals) {
  if (type_ != ColType::kInt64) throw common::InvalidArgument("column " + name_ + " not int64");
  i64_.insert(i64_.end(), vals.begin(), vals.end());
}

void Column::append_codes(std::span<const std::int32_t> vals) {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  for (const std::int32_t c : vals) {
    if (c < 0 || static_cast<std::size_t>(c) >= dict_.size()) {
      throw common::InvalidArgument("column " + name_ + ": code outside dictionary");
    }
  }
  codes_.insert(codes_.end(), vals.begin(), vals.end());
}

void Column::set_dict(std::vector<std::string> entries) {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  if (!codes_.empty() || !dict_.empty()) {
    throw common::InvalidArgument("column " + name_ + ": set_dict on a non-empty column");
  }
  std::vector<std::int32_t> slots;
  if (!build_dict_slots(entries, slots)) {
    throw common::InvalidArgument("column " + name_ + ": duplicate dictionary entry");
  }
  dict_ = std::move(entries);
  dict_slots_ = std::move(slots);
}

double Column::as_double(std::size_t row) const {
  if (type_ == ColType::kDouble) return f64_.at(row);
  if (type_ == ColType::kInt64) return static_cast<double>(i64_.at(row));
  throw common::InvalidArgument("column " + name_ + " is not numeric");
}

std::int64_t Column::as_int64(std::size_t row) const {
  if (type_ != ColType::kInt64) throw common::InvalidArgument("column " + name_ + " not int64");
  return i64_.at(row);
}

std::string_view Column::as_string(std::size_t row) const {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  return dict_.at(static_cast<std::size_t>(codes_.at(row)));
}

std::span<const double> Column::doubles() const {
  if (type_ != ColType::kDouble) throw common::InvalidArgument("column " + name_ + " not double");
  return f64_;
}

std::span<const std::int64_t> Column::int64s() const {
  if (type_ != ColType::kInt64) throw common::InvalidArgument("column " + name_ + " not int64");
  return i64_;
}

std::optional<std::int32_t> Column::find_code(std::string_view v) const {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  if (dict_slots_.empty()) return std::nullopt;
  const std::int32_t c = dict_slots_[dict_probe(dict_slots_, dict_, v)];
  if (c == kNoCode) return std::nullopt;
  return c;
}

std::span<const std::string> Column::dict() const {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  return dict_;
}

std::int32_t Column::code(std::size_t row) const {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  return codes_.at(row);
}

std::span<const std::int32_t> Column::codes() const {
  if (type_ != ColType::kString) throw common::InvalidArgument("column " + name_ + " not string");
  return codes_;
}

std::string_view Column::decode(std::int32_t code) const {
  return dict_.at(static_cast<std::size_t>(code));
}

Table::Table(std::string name, std::vector<std::pair<std::string, ColType>> schema)
    : name_(std::move(name)) {
  if (schema.empty()) throw common::InvalidArgument("table needs >= 1 column");
  columns_.reserve(schema.size());
  for (auto& [n, t] : schema) columns_.emplace_back(std::move(n), t);
}

const Column& Table::col(std::string_view name) const {
  for (const auto& c : columns_) {
    if (c.name() == name) return c;
  }
  throw common::NotFoundError("column '" + std::string(name) + "' in table " + name_);
}

Column& Table::col(std::string_view name) {
  return const_cast<Column&>(static_cast<const Table*>(this)->col(name));
}

bool Table::has_col(std::string_view name) const noexcept {
  for (const auto& c : columns_) {
    if (c.name() == name) return true;
  }
  return false;
}

Table::RowBuilder::RowBuilder(Table& t) : table_(t), filled_(t.columns_.size(), false) {}

namespace {
std::size_t col_index(Table& t, std::string_view name) {
  const auto& cols = t.columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name() == name) return i;
  }
  throw common::NotFoundError("column '" + std::string(name) + "'");
}
}  // namespace

Table::RowBuilder& Table::RowBuilder::set(std::string_view col, double v) {
  const std::size_t i = col_index(table_, col);
  table_.columns_[i].push_double(v);
  filled_[i] = true;
  return *this;
}

Table::RowBuilder& Table::RowBuilder::set(std::string_view col, std::int64_t v) {
  const std::size_t i = col_index(table_, col);
  table_.columns_[i].push_int64(v);
  filled_[i] = true;
  return *this;
}

Table::RowBuilder& Table::RowBuilder::set(std::string_view col, std::string_view v) {
  const std::size_t i = col_index(table_, col);
  table_.columns_[i].push_string(v);
  filled_[i] = true;
  return *this;
}

Table::RowBuilder::~RowBuilder() noexcept(false) {
  for (std::size_t i = 0; i < filled_.size(); ++i) {
    if (!filled_[i]) {
      throw common::InvalidArgument("row missing column '" + table_.columns_[i].name() + "'");
    }
  }
  ++table_.rows_;
  table_.zone_.reset();  // new row invalidates chunk summaries
}

void Table::finalize_rows() {
  const std::size_t n = columns_.front().size();
  for (const auto& c : columns_) {
    if (c.size() != n) {
      throw common::InvalidArgument("table " + name_ + ": ragged column '" + c.name() + "' (" +
                                    std::to_string(c.size()) + " vs " + std::to_string(n) + ")");
    }
  }
  rows_ = n;
  zone_.reset();
}

void Table::add_int64_column(std::string name, std::vector<std::int64_t> values) {
  if (values.size() != rows_) {
    throw common::InvalidArgument("table " + name_ + ": add_int64_column '" + name + "' has " +
                                  std::to_string(values.size()) + " values for " +
                                  std::to_string(rows_) + " rows");
  }
  if (has_col(name)) {
    throw common::InvalidArgument("table " + name_ + ": column '" + name + "' already exists");
  }
  Column c(std::move(name), ColType::kInt64);
  c.append_int64s(values);
  columns_.push_back(std::move(c));
  zone_.reset();  // column set changed: chunk summaries are per-column
}

void Table::set_time_partition(std::string column, std::vector<std::string> subkeys) {
  if (!column.empty()) {
    const Column& c = col(column);
    if (c.type() != ColType::kInt64) {
      throw common::InvalidArgument("time partition column '" + column + "' must be int64");
    }
    for (const auto& s : subkeys) (void)col(s);  // must exist
  }
  tp_column_ = std::move(column);
  tp_subkeys_ = std::move(subkeys);
}

void Table::rebuild_zone_index(std::size_t chunk_rows) {
  if (chunk_rows == 0) throw common::InvalidArgument("zone index needs chunk_rows >= 1");
  ZoneIndex zi;
  zi.chunk_rows = chunk_rows;
  zi.chunks = (rows_ + chunk_rows - 1) / chunk_rows;
  zi.ranges.resize(columns_.size());
  for (std::size_t ci = 0; ci < columns_.size(); ++ci) {
    const Column& c = columns_[ci];
    auto& col_ranges = zi.ranges[ci];
    col_ranges.resize(zi.chunks);
    for (std::size_t ch = 0; ch < zi.chunks; ++ch) {
      const std::size_t lo_row = ch * chunk_rows;
      const std::size_t hi_row = std::min(rows_, lo_row + chunk_rows);
      ZoneIndex::Range range;
      bool seen = false;
      for (std::size_t r = lo_row; r < hi_row; ++r) {
        double v = 0.0;
        switch (c.type()) {
          case ColType::kDouble:
            v = c.as_double(r);
            break;
          case ColType::kInt64:
            v = static_cast<double>(c.as_int64(r));
            break;
          case ColType::kString:
            v = static_cast<double>(c.code(r));
            break;
        }
        if (v != v) {  // NaN: excluded from the range, counted as null
          ++range.nulls;
          continue;
        }
        if (!seen || v < range.lo) range.lo = v;
        if (!seen || v > range.hi) range.hi = v;
        seen = true;
      }
      col_ranges[ch] = range;
    }
  }
  zone_ = std::move(zi);
}

}  // namespace supremm::warehouse
