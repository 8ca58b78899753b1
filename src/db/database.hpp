#pragma once
/// \file database.hpp
/// The table store: named tables + journaling + recovery.

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/journal.hpp"
#include "db/table.hpp"

namespace sphinx::db {

/// A collection of tables sharing one journal.
class Database : private TableObserver {
 public:
  Database();
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table; throws AssertionError if the name already exists.
  Table& create_table(const std::string& name, Schema schema);

  /// Looks up a table; throws AssertionError if absent (table names are
  /// compile-time constants in this codebase).
  [[nodiscard]] Table& table(const std::string& name);
  [[nodiscard]] const Table& table(const std::string& name) const;

  [[nodiscard]] bool has_table(const std::string& name) const noexcept;
  [[nodiscard]] std::vector<std::string> table_names() const;
  [[nodiscard]] std::size_t table_count() const noexcept { return tables_.size(); }

  /// The journal of all mutations since construction (or last checkpoint).
  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }

  /// Drops the retained journal entries, advancing the sequence base
  /// (after a checkpoint captured the prefix's effects elsewhere).
  void truncate_journal() noexcept { journal_.clear(); }

  /// Compacts the journal prefix below `seq` (see
  /// Journal::truncate_before) -- the checkpoint path, where `seq` is
  /// the sequence the published image reflects.
  void truncate_journal(std::uint64_t seq) { journal_.truncate_before(seq); }

  /// Enables/disables journaling (enabled by default).  Replay-into-self
  /// would double-log, so recover() and restore() disable it internally.
  void set_journaling(bool on) noexcept { journaling_ = on; }

  /// Whether restore() and recover() end with the check_invariants()
  /// sweep.  kByCaller is for a caller that sweeps this database itself
  /// once its whole recovery is done, so that a recovery (restore, then
  /// suffix replay, then the caller's own checks) sweeps the store once.
  enum class Sweep { kNow, kByCaller };

  /// Deterministic, byte-stable image of the whole store: table schemas
  /// (creation order, with their index declarations), rows (id order)
  /// and each table's id-allocation cursor.  A pure function of the
  /// store's logical state -- equal tables yield identical bytes no
  /// matter what mutation history produced them.  Round-trips through
  /// restore() using the journal's line-oriented text building blocks.
  ///
  /// Incremental: the database keeps its last image and where each row
  /// sits in it, and marks every row inserted, updated or erased since
  /// (journaling on or off).  The next image copies the unchanged rows'
  /// bytes in contiguous runs and encodes only the marked rows and the
  /// table header lines, so it costs O(rows changed + image bytes).  The
  /// first image, and the first one of a table created since, is the
  /// same walk with every row marked.  The database keeps the returned
  /// image (see image()) until the next one.
  const std::string& snapshot();

  /// The last snapshot() image as an immutable shared buffer, null
  /// before the first.  A caller that keeps an image (the warehouse's
  /// checkpoint, a crashed server's durable state) shares this buffer
  /// rather than copying it.
  [[nodiscard]] const std::shared_ptr<const std::string>& image()
      const noexcept {
    return image_;
  }

  /// Rebuilds tables from a snapshot() image into this empty database.
  /// The snapshot is state, not history: nothing is journaled and the
  /// journal is left empty -- the caller pairs the image with the
  /// journal suffix it wants replayed on top (see recover()).  A
  /// malformed image (bad encoding, a row that does not fit its schema,
  /// a bad or repeated row id, a cursor at or below a row id) returns a
  /// restore_parse error; it never throws.  Ends with the
  /// check_invariants() sweep unless `sweep` is kByCaller.
  [[nodiscard]] StatusOrError restore(const std::string& snapshot,
                                      Sweep sweep = Sweep::kNow);

  /// Rebuilds database content by replaying the entries of `journal`
  /// whose sequence number is >= from_seq.  With from_seq == 0 (full
  /// replay) this database must be empty; with from_seq > 0 it replays a
  /// post-checkpoint suffix onto tables a restore() just rebuilt.  On
  /// success the replayed suffix is adopted wholesale as this database's
  /// own journal -- byte-identical to the crashed journal's retained
  /// entries -- so a recovered server remains recoverable.  An entry that
  /// cannot apply (missing table or row, cells that do not fit the
  /// schema, a bad or repeated row id) returns a recover_replay error.
  /// Ends with the check_invariants() sweep unless `sweep` is kByCaller.
  [[nodiscard]] StatusOrError recover(const Journal& journal,
                                      std::uint64_t from_seq = 0,
                                      Sweep sweep = Sweep::kNow);

  /// Structural sweep across the store: every table passes its own
  /// check_invariants(), the name map and creation order agree, the
  /// image index stays id-ordered inside the last image, and every
  /// journal entry references a table that exists (tables are never
  /// dropped, so this holds across truncation and recovery).
  /// Throws ContractViolation on corruption; no-op when contracts are
  /// compiled out.
  void check_invariants() const;

 private:
  friend struct DatabaseInspector;  // test-only fault injection

  /// Where one row's line sits in the last snapshot() image.
  struct RowSpan {
    RowId id = kInvalidRow;
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  /// One table's share of the last image: its rows' lines in id order,
  /// and the rows mutated since (unsorted, possibly repeated).
  struct TableImage {
    bool imaged = false;  ///< false until an image included the table
    std::vector<RowSpan> spans;
    std::vector<RowId> stale;
  };

  [[nodiscard]] Table* find_table(const std::string& name) const noexcept;
  /// Notes that row `id` of table `slot` no longer matches the last image.
  void mark_stale(std::size_t slot, RowId id);
  /// Appends `table`'s row lines to `out`: unchanged rows copied from
  /// `previous` (the last image), stale ones re-encoded.  Leaves `image`
  /// describing the new lines.
  static void append_rows(const Table& table, std::string_view previous,
                          TableImage& image, std::string& out);

  void on_insert(std::size_t slot, RowId id,
                 const std::vector<Value>& cells) override;
  void on_update(std::size_t slot, RowId id, std::size_t column,
                 const Value& value) override;
  void on_erase(std::size_t slot, RowId id) override;

  std::vector<std::unique_ptr<Table>> tables_;  // creation order
  std::unordered_map<std::string, std::size_t> slots_;  // name -> tables_ index
  Journal journal_;
  bool journaling_ = true;
  /// The last snapshot() image and, per table in creation order, where
  /// its rows sit in it.  Null until the first snapshot().
  std::shared_ptr<const std::string> image_;  // sphinx-lint: derived(snapshot)
  std::vector<TableImage> images_;  // sphinx-lint: derived(create_table, snapshot, mark_stale)
};

}  // namespace sphinx::db
