#include "db/table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "common/log.hpp"

namespace sphinx::db {
namespace {

bool is_nan(const Value& v) noexcept {
  return v.type() == ValueType::kReal && std::isnan(v.as_real());
}

}  // namespace

std::size_t Table::KeyHash::operator()(const Value& v) const noexcept {
  switch (v.type()) {
    case ValueType::kNull: return 0;
    case ValueType::kInt: return std::hash<std::int64_t>{}(v.as_int());
    case ValueType::kReal: {
      const double d = v.as_real();
      if (std::isnan(d)) return 1;
      return std::hash<double>{}(d == 0.0 ? 0.0 : d);  // -0.0 == 0.0
    }
    case ValueType::kText: return std::hash<std::string>{}(v.as_text());
    case ValueType::kBool: return v.as_bool() ? 3 : 2;
  }
  return 0;
}

bool Table::KeyEq::operator()(const Value& a, const Value& b) const noexcept {
  return a == b || (is_nan(a) && is_nan(b));
}

Schema::Schema(std::initializer_list<Column> cols)
    : Schema(std::vector<Column>(cols.begin(), cols.end())) {}

Schema::Schema(std::vector<Column> cols) : columns_(std::move(cols)) {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    by_name_.emplace(columns_[i].name, i);
  }
  SPHINX_ASSERT(by_name_.size() == columns_.size(),
                "duplicate column name in schema");
}

std::size_t Schema::index_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  SPHINX_ASSERT(it != by_name_.end(), "unknown column: " + name);
  return it->second;
}

bool Schema::has(const std::string& name) const noexcept {
  return by_name_.contains(name);
}

bool Schema::accepts(const std::vector<Value>& row) const noexcept {
  if (row.size() != columns_.size()) return false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!accepts_cell(i, row[i])) return false;
  }
  return true;
}

bool Schema::accepts_cell(std::size_t i, const Value& v) const noexcept {
  if (i >= columns_.size()) return false;
  if (columns_[i].type == ValueType::kNull) return true;  // untyped column
  if (v.is_null()) return true;                           // null always ok
  if (v.type() == ValueType::kInt && columns_[i].type == ValueType::kReal) {
    return true;  // ints widen to reals
  }
  return v.type() == columns_[i].type;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      indexes_(schema_.size()) {
  for (const Column& column : schema_.columns()) {
    if (column.indexed) create_index(column.name);
  }
}

std::size_t Table::slot_of(RowId id) const noexcept {
  if (id == kInvalidRow || slots_.empty()) return slots_.size();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = id & mask;; i = (i + 1) & mask) {
    const std::uint32_t pos = slots_[i];
    if (pos == kNoRow) return slots_.size();
    if (rows_[pos].id == id) return i;
  }
}

void Table::place(std::size_t pos) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = rows_[pos].id & mask;
  while (slots_[i] != kNoRow) i = (i + 1) & mask;
  slots_[i] = static_cast<std::uint32_t>(pos);
}

void Table::unplace(std::size_t slot) noexcept {
  // Backward-shift deletion: an entry further along the probe chain moves
  // into the hole unless its home slot lies cyclically in (hole, entry].
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (slot + 1) & mask; slots_[j] != kNoRow;
       j = (j + 1) & mask) {
    const std::size_t home = rows_[slots_[j]].id & mask;
    if (((j - home) & mask) >= ((j - slot) & mask)) {
      slots_[slot] = slots_[j];
      slot = j;
    }
  }
  slots_[slot] = kNoRow;
}

void Table::reindex() {
  if (holes_ != 0) {
    std::erase_if(rows_, [](const Row& row) { return row.id == kInvalidRow; });
    holes_ = 0;
  }
  SPHINX_ASSERT(rows_.size() < kNoRow, "table " + name_ + " is too large");
  slots_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * rows_.size() + 2)),
                kNoRow);
  for (std::size_t pos = 0; pos < rows_.size(); ++pos) place(pos);
}

void Table::add(RowId id, std::vector<Value> cells) {
  std::size_t pos = rows_.size();
  if (rows_.empty() || rows_.back().id < id) {
    rows_.push_back(Row{id, std::move(cells)});
    if (2 * rows_.size() > slots_.size()) {
      reindex();  // may drop holes: the new row stays last
      pos = rows_.size() - 1;
    } else {
      place(pos);
    }
  } else {
    // Below the newest row (replay into an erased id): insert in id order
    // and renumber every position.  O(rows).
    reindex();  // drops the holes, whose id 0 would break the search
    const auto at = std::lower_bound(
        rows_.begin(), rows_.end(), id,
        [](const Row& row, RowId key) { return row.id < key; });
    pos = static_cast<std::size_t>(at - rows_.begin());
    rows_.insert(at, Row{id, std::move(cells)});
    reindex();
  }
  const Row& row = rows_[pos];
  for (const std::size_t col : indexed_columns_) {
    index_insert(col, row.cells[col], id);
  }
  if (observer_ != nullptr) observer_->on_insert(observer_slot_, id, row.cells);
}

RowId Table::insert(std::vector<Value> cells) {
  SPHINX_ASSERT(schema_.accepts(cells),
                "row does not match schema of table " + name_);
  const RowId id = next_id_++;
  add(id, std::move(cells));
  return id;
}

void Table::insert_with_id(RowId id, std::vector<Value> cells) {
  SPHINX_ASSERT(id != kInvalidRow, "invalid row id in replay");
  SPHINX_ASSERT(schema_.accepts(cells),
                "row does not match schema of table " + name_);
  SPHINX_ASSERT(find(id) == nullptr, "row id already present in replay");
  next_id_ = std::max(next_id_, id + 1);
  add(id, std::move(cells));
}

bool Table::update(RowId id, std::size_t column, Value value) {
  const std::size_t slot = slot_of(id);
  if (slot == slots_.size()) return false;
  SPHINX_ASSERT(column < schema_.size(), "column index out of range");
  SPHINX_ASSERT(schema_.accepts_cell(column, value),
                "cell type does not match schema of table " + name_);
  Value& cell = rows_[slots_[slot]].cells[column];
  if (indexes_[column] && !KeyEq{}(cell, value)) {
    index_erase(column, cell, id);
    cell = std::move(value);
    index_insert(column, cell, id);
  } else {
    cell = std::move(value);
  }
  if (observer_ != nullptr) observer_->on_update(observer_slot_, id, column, cell);
  return true;
}

bool Table::erase(RowId id) {
  const std::size_t slot = slot_of(id);
  if (slot == slots_.size()) return false;
  const std::size_t pos = slots_[slot];
  const Row& row = rows_[pos];
  for (const std::size_t col : indexed_columns_) {
    index_erase(col, row.cells[col], id);
  }
  unplace(slot);
  if (pos + 1 == rows_.size()) {
    rows_.pop_back();
    while (!rows_.empty() && rows_.back().id == kInvalidRow) {
      rows_.pop_back();
      --holes_;
    }
  } else {
    rows_[pos] = Row{};
    ++holes_;
    if (holes_ > size()) reindex();
  }
  if (observer_ != nullptr) observer_->on_erase(observer_slot_, id);
  return true;
}

const Row* Table::find(RowId id) const {
  const std::size_t slot = slot_of(id);
  return slot == slots_.size() ? nullptr : &rows_[slots_[slot]];
}

void Table::create_index(const std::string& column) {
  const std::size_t col = schema_.index_of(column);
  if (indexes_[col]) return;
  indexes_[col].emplace();
  indexed_columns_.insert(std::upper_bound(indexed_columns_.begin(),
                                           indexed_columns_.end(), col),
                          col);
  for (const Row& row : rows_) {
    if (row.id != kInvalidRow) index_insert(col, row.cells[col], row.id);
  }
}

std::vector<RowId> Table::find_by(std::size_t column,
                                  const Value& value) const {
  SPHINX_ASSERT(column < schema_.size(), "column index out of range");
  if (const Index* index = index_on(column)) {
    if (is_nan(value)) return {};  // NaN equals nothing, as in the scan
    const auto bucket = index->find(value);
    if (bucket == index->end()) return {};
    return bucket->second;  // maintained in id order
  }
  note_full_scan(column);
  std::vector<RowId> out;
  for (const Row& row : rows_) {
    if (row.id != kInvalidRow && row.cells[column] == value) {
      out.push_back(row.id);
    }
  }
  return out;
}

const Row* Table::find_first(std::size_t column, const Value& value) const {
  SPHINX_ASSERT(column < schema_.size(), "column index out of range");
  if (const Index* index = index_on(column)) {
    if (is_nan(value)) return nullptr;
    const auto bucket = index->find(value);
    if (bucket == index->end()) return nullptr;
    return find(bucket->second.front());  // buckets are never empty
  }
  note_full_scan(column);
  for (const Row& row : rows_) {
    if (row.id != kInvalidRow && row.cells[column] == value) return &row;
  }
  return nullptr;
}

void Table::note_full_scan(std::size_t column) const {
#if SPHINX_CONTRACTS_ENABLED
  // Debug-build contract on query plans: an equality query that cannot
  // use an index is almost always a missing `indexed` declaration in the
  // schema.  Count every fallback and log the first one per column.
  ++full_scans_;
  if (scan_logged_.size() < schema_.size()) scan_logged_.resize(schema_.size());
  if (!scan_logged_[column]) {
    scan_logged_[column] = true;
    const Logger log{"db"};
    log.warn("full-scan query on ", name_, ".", schema_.at(column).name,
             " (no index declared for this column)");
  }
#else
  (void)column;
#endif
}

std::vector<RowId> Table::select(
    const std::function<bool(const Row&)>& pred) const {
  std::vector<RowId> out;
  for (const Row& row : rows_) {
    if (row.id != kInvalidRow && pred(row)) out.push_back(row.id);
  }
  return out;
}

void Table::for_each(const std::function<void(const Row&)>& fn) const {
  for (const Row& row : rows_) {
    if (row.id != kInvalidRow) fn(row);
  }
}

std::size_t Table::count_by(std::size_t column, const Value& value) const {
  SPHINX_ASSERT(column < schema_.size(), "column index out of range");
  if (const Index* index = index_on(column); index != nullptr &&
                                             !is_nan(value)) {
    const auto bucket = index->find(value);
    return bucket == index->end() ? 0 : bucket->second.size();
  }
  return find_by(column, value).size();
}

void Table::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  RowId previous = kInvalidRow;
  std::size_t holes = 0;
  for (std::size_t pos = 0; pos < rows_.size(); ++pos) {
    const Row& row = rows_[pos];
    if (row.id == kInvalidRow) {
      ++holes;
      continue;
    }
    SPHINX_INVARIANT(row.id > previous,
                     "rows out of id order in table " + name_);
    previous = row.id;
    SPHINX_INVARIANT(row.id < next_id_,
                     "row id beyond allocation cursor in table " + name_);
    SPHINX_INVARIANT(schema_.accepts(row.cells),
                     "row violates schema of table " + name_);
    const std::size_t slot = slot_of(row.id);
    SPHINX_INVARIANT(slot != slots_.size() && slots_[slot] == pos,
                     "row not found under its id in table " + name_);
  }
  SPHINX_INVARIANT(holes == holes_ && (rows_.empty() ||
                                       rows_.back().id != kInvalidRow),
                   "hole bookkeeping out of sync in table " + name_);
  SPHINX_INVARIANT(
      static_cast<std::size_t>(std::count_if(
          slots_.begin(), slots_.end(),
          [](std::uint32_t pos) { return pos != kNoRow; })) == size(),
      "id lookup holds stale entries in table " + name_);
  for (const std::size_t col : indexed_columns_) {
    std::size_t covered = 0;
    for (const auto& [key, ids] : *indexes_[col]) {
      SPHINX_INVARIANT(!ids.empty(),
                       "empty index bucket in table " + name_);
      SPHINX_INVARIANT(std::adjacent_find(ids.begin(), ids.end(),
                                          std::greater_equal<RowId>()) ==
                           ids.end(),
                       "index bucket not strictly id-ordered in table " +
                           name_);
      for (const RowId id : ids) {
        const Row* row = find(id);
        SPHINX_INVARIANT(row != nullptr,
                         "index names a missing row in table " + name_);
        SPHINX_INVARIANT(KeyEq{}(row->cells[col], key),
                         "index bucket key mismatch in table " + name_);
      }
      covered += ids.size();
    }
    SPHINX_INVARIANT(covered == size(),
                     "index does not cover table " + name_);
  }
#endif
}

void Table::restore_next_id(RowId next_id) {
  SPHINX_PRECONDITION(next_id >= next_id_,
                      "allocation cursor cannot move backwards");
  next_id_ = next_id;
}

void Table::index_insert(std::size_t column, const Value& key, RowId id) {
  auto& ids = (*indexes_[column])[key];
  // Buckets stay id-ordered (not touch-ordered): query order must be
  // derivable from table state so a snapshot-restored table iterates
  // identically to the live one.  Inserts allocate increasing ids, so
  // the common case is an O(1) append; only an update that moves an
  // old row between buckets pays the ordered insert.
  if (ids.empty() || ids.back() < id) {
    ids.push_back(id);
    return;
  }
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

void Table::index_erase(std::size_t column, const Value& key, RowId id) {
  Index& index = *indexes_[column];
  const auto it = index.find(key);
  if (it == index.end()) return;
  auto& ids = it->second;
  const auto at = std::lower_bound(ids.begin(), ids.end(), id);
  if (at != ids.end() && *at == id) ids.erase(at);
  if (ids.empty()) index.erase(it);
}

}  // namespace sphinx::db
