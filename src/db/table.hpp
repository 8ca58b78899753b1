#pragma once
/// \file table.hpp
/// Schema'd in-memory tables with secondary indexes.
///
/// Tables are the inter-module communication fabric of the SPHINX server:
/// one module writes a row in a new state, the control process reads rows
/// by state and wakes the module responsible for that state (paper
/// section 3.2).  Rows are addressed by a stable RowId so the journal can
/// replay mutations.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "db/value.hpp"

namespace sphinx::db {

/// Stable identifier of a row within one table.
using RowId = std::uint64_t;
inline constexpr RowId kInvalidRow = 0;

/// Column definition.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;  ///< kNull means "any type accepted"
  /// Declares a hash index on this column at table creation.  The flag is
  /// part of the schema, so it is journaled with kCreateTable entries and
  /// recovery rebuilds the same indexes automatically.
  bool indexed = false;

  friend bool operator==(const Column&, const Column&) = default;
};

/// Shorthand for declaring an indexed column in a schema literal.
[[nodiscard]] inline Column indexed(std::string name, ValueType type) {
  return Column{std::move(name), type, true};
}

/// Ordered list of columns.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Column> cols);
  explicit Schema(std::vector<Column> cols);

  [[nodiscard]] std::size_t size() const noexcept { return columns_.size(); }
  [[nodiscard]] const Column& at(std::size_t i) const { return columns_.at(i); }
  /// Index of a named column; throws AssertionError if absent.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const noexcept;
  [[nodiscard]] const std::vector<Column>& columns() const noexcept {
    return columns_;
  }

  /// Checks that `row` matches arity and column types (null always allowed).
  [[nodiscard]] bool accepts(const std::vector<Value>& row) const noexcept;

  /// Checks one cell against column `i`'s declared type (null always
  /// allowed, ints widen to reals).
  [[nodiscard]] bool accepts_cell(std::size_t i, const Value& v) const noexcept;

 private:
  std::vector<Column> columns_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

/// A materialized row: id + cells.
struct Row {
  RowId id = kInvalidRow;
  std::vector<Value> cells;
};

/// Observer invoked on every committed mutation; the journal subscribes.
/// `slot` is the number the observer gave the table in set_observer(),
/// so it can find its bookkeeping for the table without a name lookup.
struct TableObserver {
  virtual ~TableObserver() = default;
  virtual void on_insert(std::size_t slot, RowId id,
                         const std::vector<Value>& cells) = 0;
  virtual void on_update(std::size_t slot, RowId id, std::size_t column,
                         const Value& value) = 0;
  virtual void on_erase(std::size_t slot, RowId id) = 0;
};

/// One table.  Insertions get monotonically increasing RowIds; indexes are
/// hash indexes on a single column maintained incrementally.  Columns
/// marked `indexed` in the schema get their index at construction.
///
/// Rows sit in one id-ordered vector.  An erased row leaves a hole that
/// iteration skips, until holes outnumber live rows and the vector is
/// compacted; a row erased from the back leaves none.  An open-addressing
/// table from id to vector position makes find() O(1).  Iteration is
/// O(live rows) and memory O(peak live rows), however many rows a
/// churning table has seen.
///
/// Columns are addressed by schema position; callers resolve a name once
/// with Schema::index_of.
class Table {
 public:
  Table(std::string name, Schema schema);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return rows_.size() - holes_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Inserts a row; returns its id.  Throws AssertionError on schema
  /// mismatch (callers construct rows from typed code, not user input).
  RowId insert(std::vector<Value> cells);

  /// Inserts preserving a specific id -- used only by journal replay.
  /// An id below the newest row's costs O(rows); replay and restore
  /// insert in id order, which appends.
  void insert_with_id(RowId id, std::vector<Value> cells);

  /// The id the next insert() will allocate.  Part of the table's
  /// persistent state: erasing the newest row does not rewind it, so a
  /// checkpoint snapshot must carry it explicitly.
  [[nodiscard]] RowId next_id() const noexcept { return next_id_; }

  /// Restores the allocation cursor from a checkpoint snapshot.  Only
  /// ever moves the cursor forward (row inserts already advanced it to
  /// max(id)+1; the snapshot cursor can sit higher when tail rows were
  /// erased before the snapshot).
  void restore_next_id(RowId next_id);

  /// Updates one cell.  Returns false if the row does not exist.  Only
  /// the index on `column`, if it has one, changes.
  bool update(RowId id, std::size_t column, Value value);

  /// Removes a row.  Returns false if absent.
  bool erase(RowId id);

  /// Row lookup; nullptr if absent.  Pointer invalidated by inserts and
  /// erases (update() leaves it valid).
  [[nodiscard]] const Row* find(RowId id) const;

  /// Declares a hash index on `column` (idempotent).
  void create_index(const std::string& column);

  /// All row ids whose `column` equals `value` (Value's ==, so a NaN key
  /// matches nothing and 0.0 matches -0.0).  Uses the index when one
  /// exists, otherwise scans; both paths return the same ids, in id (=
  /// insertion) order: index buckets are kept id-ordered so query
  /// results are a function of table *state*, never of update history
  /// (checkpoint restore rebuilds buckets from rows alone and must
  /// reproduce the live instance's iteration order exactly).
  [[nodiscard]] std::vector<RowId> find_by(std::size_t column,
                                           const Value& value) const;

  /// First (lowest-id) row whose `column` equals `value`; nullptr when no
  /// row matches.  The hot-path accessor for unique-key lookups: unlike
  /// find_by it does not materialize an id vector.  Pointer invalidated
  /// like find()'s.
  [[nodiscard]] const Row* find_first(std::size_t column,
                                      const Value& value) const;

  /// Row ids matching an arbitrary predicate, in insertion order.
  [[nodiscard]] std::vector<RowId> select(
      const std::function<bool(const Row&)>& pred) const;

  /// Visits every row in insertion order.
  void for_each(const std::function<void(const Row&)>& fn) const;

  /// Number of rows whose `column` equals `value`.
  [[nodiscard]] std::size_t count_by(std::size_t column,
                                     const Value& value) const;

  /// Reports every mutation to `observer` as table number `slot`.
  void set_observer(TableObserver* observer, std::size_t slot) noexcept {
    observer_ = observer;
    observer_slot_ = slot;
  }

  /// Queries that fell back to a full table scan because the column had
  /// no index (counted only in contract-enabled builds).  A hot-path
  /// query showing up here means a missing `indexed` schema declaration;
  /// the first scan per column is also logged at warn level.
  [[nodiscard]] std::uint64_t full_scans() const noexcept {
    return full_scans_;
  }

  /// Structural sweep: rows are id-ordered, match the schema and stay
  /// below the allocation cursor, every row is found under its id, and
  /// every index bucket mirrors the rows it claims to cover.  Throws
  /// ContractViolation on corruption; a no-op when contracts are
  /// compiled out.
  void check_invariants() const;

 private:
  friend struct TableInspector;  // test-only fault injection
  /// Index key hashing and equality.  Equality is Value's == except that
  /// NaN matches NaN, so a row with a NaN cell can always be found again
  /// to move or erase it; queries for NaN still match nothing, like the
  /// scan.  The hash maps 0.0 and -0.0 together, as == does.
  struct KeyHash {
    std::size_t operator()(const Value& v) const noexcept;
  };
  struct KeyEq {
    bool operator()(const Value& a, const Value& b) const noexcept;
  };
  /// Key -> ids of the rows holding it, id-ordered.
  using Index = std::unordered_map<Value, std::vector<RowId>, KeyHash, KeyEq>;
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  [[nodiscard]] const Index* index_on(std::size_t column) const {
    return indexes_[column] ? &*indexes_[column] : nullptr;
  }
  /// Position in slots_ of the entry for `id`, or slots_.size() if none.
  [[nodiscard]] std::size_t slot_of(RowId id) const noexcept;
  /// Adds the slots_ entry for the row at rows_[pos].
  void place(std::size_t pos) noexcept;
  /// Removes the slots_ entry at `slot`, shifting its probe chain back.
  void unplace(std::size_t slot) noexcept;
  /// Drops the holes from rows_ and rebuilds slots_ sized for the rest.
  void reindex();
  /// Stores a new row under `id` (absent so far), indexes it and tells
  /// the observer.
  void add(RowId id, std::vector<Value> cells);
  void index_insert(std::size_t column, const Value& key, RowId id);
  void index_erase(std::size_t column, const Value& key, RowId id);
  void note_full_scan(std::size_t column) const;

  std::string name_;
  Schema schema_;
  /// Rows in id order; an erased row's hole has id kInvalidRow.  The
  /// last element is never a hole.
  std::vector<Row> rows_;
  std::size_t holes_ = 0;
  /// Open addressing (linear probing, load <= 1/2) from a row id to its
  /// position in rows_; kNoRow marks a free slot.  Probing starts at
  /// id & (size - 1), so densely allocated ids never collide.
  std::vector<std::uint32_t> slots_;
  RowId next_id_ = 1;
  /// Per column: its index, if it has one.
  std::vector<std::optional<Index>> indexes_;
  std::vector<std::size_t> indexed_columns_;  // ascending
  TableObserver* observer_ = nullptr;
  std::size_t observer_slot_ = 0;
  mutable std::uint64_t full_scans_ = 0;
  mutable std::vector<bool> scan_logged_;  // per column, first-scan log gate
};

}  // namespace sphinx::db
