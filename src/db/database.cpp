#include "db/database.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {
namespace {

/// Why `columns` cannot form a schema; empty when they can.
std::string schema_problem(const std::vector<Column>& columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (columns[i].name == columns[j].name) {
        return "duplicate column name: " + columns[i].name;
      }
    }
  }
  return {};
}

/// Why `cells` cannot be replayed into `table` as row `id`; empty when
/// they can.  Checked before insert_with_id, which asserts the same.
std::string insert_problem(const Table& table, RowId id,
                           const std::vector<Value>& cells) {
  // The top id is refused too: the allocation cursor past it would wrap.
  if (id == kInvalidRow || id == std::numeric_limits<RowId>::max()) {
    return "bad row id " + std::to_string(id) + " in table " + table.name();
  }
  if (table.find(id) != nullptr) {
    return "duplicate row id " + std::to_string(id) + " in table " +
           table.name();
  }
  if (!table.schema().accepts(cells)) {
    return "row does not match schema of table " + table.name();
  }
  return {};
}

/// Appends one row's "R" line.
void append_row(std::string& out, const Row& row) {
  out += "R\t";
  append_uint(out, row.id);
  for (const Value& v : row.cells) {
    out += '\t';
    append_value(out, v);
  }
  out += '\n';
}

}  // namespace

Database::Database() = default;
Database::~Database() = default;

Table& Database::create_table(const std::string& name, Schema schema) {
  SPHINX_ASSERT(!slots_.contains(name), "table already exists: " + name);
  if (journaling_) {
    JournalEntry entry;
    entry.op = JournalEntry::Op::kCreateTable;
    entry.table = name;
    entry.schema = schema.columns();
    journal_.append(std::move(entry));
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  table->set_observer(this, tables_.size());
  Table& ref = *table;
  slots_.emplace(name, tables_.size());
  tables_.push_back(std::move(table));
  images_.emplace_back();  // not imaged yet: its first image encodes it all
  return ref;
}

Table* Database::find_table(const std::string& name) const noexcept {
  const auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : tables_[it->second].get();
}

Table& Database::table(const std::string& name) {
  Table* t = find_table(name);
  SPHINX_ASSERT(t != nullptr, "no such table: " + name);
  return *t;
}

const Table& Database::table(const std::string& name) const {
  const Table* t = find_table(name);
  SPHINX_ASSERT(t != nullptr, "no such table: " + name);
  return *t;
}

bool Database::has_table(const std::string& name) const noexcept {
  return slots_.contains(name);
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& t : tables_) names.push_back(t->name());
  return names;
}

StatusOrError Database::recover(const Journal& journal,
                                std::uint64_t from_seq, Sweep sweep) {
  if (from_seq == 0 && !tables_.empty()) {
    return make_error("recover_nonempty",
                      "recover() requires an empty database");
  }
  if (journal.base_seq() > from_seq) {
    // The journal was compacted past the requested start: the dropped
    // prefix only survives inside the checkpoint image that truncated
    // it, so the caller must recover through that image.
    return make_error("recover_suffix",
                      "journal starts past the requested sequence; "
                      "recover through the matching checkpoint image");
  }
  // Replay with journaling suspended: instead of re-recording every
  // operation through the observer path one entry at a time, the
  // replayed suffix is adopted wholesale below -- byte-identical to the
  // crashed journal's retained entries.
  const bool was_journaling = journaling_;
  journaling_ = false;
  const auto fail = [&](const std::string& what) {
    journaling_ = was_journaling;
    return make_error("recover_replay", what);
  };
  std::uint64_t seq = journal.base_seq();
  for (const JournalEntry& e : journal.entries()) {
    // Entries below from_seq are already folded into the restored
    // snapshot (recovery after a crash between checkpoint publication
    // and truncation sees them still in the journal).
    if (seq++ < from_seq) continue;
    Table* t = find_table(e.table);
    switch (e.op) {
      case JournalEntry::Op::kCreateTable: {
        if (t != nullptr) return fail("duplicate table: " + e.table);
        if (std::string why = schema_problem(e.schema); !why.empty()) {
          return fail(why);
        }
        create_table(e.table, Schema(e.schema));
        break;
      }
      case JournalEntry::Op::kInsert: {
        if (t == nullptr) return fail("insert into missing table");
        if (std::string why = insert_problem(*t, e.row, e.cells);
            !why.empty()) {
          return fail(why);
        }
        t->insert_with_id(e.row, e.cells);
        break;
      }
      case JournalEntry::Op::kUpdate: {
        if (t == nullptr || t->find(e.row) == nullptr) {
          return fail("update of missing row");
        }
        if (e.cells.size() != 1 ||
            !t->schema().accepts_cell(e.column, e.cells.front())) {
          return fail("update does not match schema of table " + e.table);
        }
        t->update(e.row, e.column, e.cells.front());
        break;
      }
      case JournalEntry::Op::kErase: {
        if (t == nullptr || !t->erase(e.row)) {
          return fail("erase of missing row");
        }
        break;
      }
    }
  }
  journaling_ = was_journaling;
  journal_.adopt_suffix(journal, from_seq);
  // A replayed store must be as sound as the original.
  if (sweep == Sweep::kNow) check_invariants();
  return {};
}

const std::string& Database::snapshot() {
  const std::string_view previous =
      image_ != nullptr ? std::string_view(*image_) : std::string_view{};
  std::string out;
  // The image grows slowly between checkpoints; a little headroom spares
  // the doubling reallocation.
  out.reserve(previous.size() + previous.size() / 16 + 64);
  out += "#db\t1\n";
  for (std::size_t slot = 0; slot < tables_.size(); ++slot) {
    const Table& t = *tables_[slot];
    out += "T\t";
    append_escaped(out, t.name());
    out += '\t';
    append_uint(out, t.next_id());
    for (const Column& col : t.schema().columns()) {
      out += '\t';
      append_column(out, col);
    }
    out += '\n';
    append_rows(t, previous, images_[slot], out);
  }
  image_ = std::make_shared<const std::string>(std::move(out));
  return *image_;
}

void Database::append_rows(const Table& table, std::string_view previous,
                           TableImage& image, std::string& out) {
  std::vector<RowSpan> spans;
  spans.reserve(table.size());
  const auto encode = [&](const Row& row) {
    const std::size_t offset = out.size();
    append_row(out, row);
    spans.push_back({row.id, offset, out.size() - offset});
  };
  if (!image.imaged) {
    table.for_each(encode);  // the table's first image: every row is stale
  } else {
    std::sort(image.stale.begin(), image.stale.end());
    image.stale.erase(std::unique(image.stale.begin(), image.stale.end()),
                      image.stale.end());
    // Merge the previous image's rows with the stale ids, both id-ordered.
    // Unchanged rows accumulate into a run of adjacent previous bytes,
    // copied whole when a stale row or a gap (an erased row) ends it.
    std::size_t run_offset = 0;
    std::size_t run_length = 0;
    const auto flush = [&] {
      out.append(previous.data() + run_offset, run_length);
      run_length = 0;
    };
    const auto encode_stale = [&](RowId id) {
      if (const Row* row = table.find(id)) {  // absent: erased since
        flush();
        encode(*row);
      }
    };
    auto stale = image.stale.begin();
    const auto stale_end = image.stale.end();
    for (const RowSpan& old : image.spans) {
      while (stale != stale_end && *stale < old.id) encode_stale(*stale++);
      if (stale != stale_end && *stale == old.id) {
        encode_stale(*stale++);
        continue;
      }
      if (run_length != 0 && run_offset + run_length != old.offset) flush();
      if (run_length == 0) run_offset = old.offset;
      spans.push_back({old.id, out.size() + run_length, old.length});
      run_length += old.length;
    }
    while (stale != stale_end) encode_stale(*stale++);
    flush();
  }
  image.spans = std::move(spans);
  image.stale.clear();
  image.imaged = true;
}

StatusOrError Database::restore(const std::string& snapshot, Sweep sweep) {
  if (!tables_.empty()) {
    return make_error("restore_nonempty",
                      "restore() requires an empty database");
  }
  // Snapshot application is not a mutation history: nothing it does may
  // reach the journal.
  const bool was_journaling = journaling_;
  journaling_ = false;
  const auto fail = [&](const std::string& what) {
    journaling_ = was_journaling;
    return make_error("restore_parse", what);
  };

  Table* current = nullptr;
  RowId cursor = kInvalidRow;
  // The allocation cursor is applied after the rows: restore_next_id
  // only moves forward, and the inserts advanced it to max(id)+1.  A
  // cursor at or below a row id is corruption.
  const auto finish_table = [&] {
    if (current == nullptr) return true;
    if (cursor < current->next_id()) return false;
    current->restore_next_id(cursor);
    return true;
  };
  const auto bad_cursor = [&] {
    return fail("allocation cursor at or below a row id in table " +
                current->name());
  };

  std::string_view rest = snapshot;
  bool saw_header = false;
  while (!rest.empty()) {
    const std::string_view line = next_line(rest);
    if (line.empty()) continue;
    Fields fields(line);
    const std::string_view kind = fields.next();
    if (!saw_header) {
      if (kind != "#db" || fields.next() != "1" || !fields.done()) {
        return fail("bad snapshot header: " + std::string(line));
      }
      saw_header = true;
    } else if (kind == "T") {
      if (!finish_table()) return bad_cursor();
      const auto short_record = [&] {
        return fail("short table record: " + std::string(line));
      };
      if (fields.done()) return short_record();
      auto name = unescape_field(fields.next());
      if (!name) return fail(name.error().to_string());
      if (fields.done()) return short_record();
      if (has_table(*name)) return fail("duplicate table: " + *name);
      const std::string_view cursor_text = fields.next();
      auto next_id = parse_uint(cursor_text);
      if (!next_id) {
        return fail("bad allocation cursor: " + std::string(cursor_text));
      }
      std::vector<Column> columns;
      while (!fields.done()) {
        auto column = parse_column(fields.next());
        if (!column) return fail(column.error().to_string());
        columns.push_back(std::move(*column));
      }
      if (std::string why = schema_problem(columns); !why.empty()) {
        return fail(why);
      }
      current = &create_table(*name, Schema(std::move(columns)));
      cursor = *next_id;
    } else if (kind == "R") {
      if (current == nullptr) {
        return fail("row before any table: " + std::string(line));
      }
      if (fields.done()) return fail("short row record: " + std::string(line));
      const std::string_view id_text = fields.next();
      auto id = parse_uint(id_text);
      if (!id) return fail("bad row id: " + std::string(id_text));
      std::vector<Value> cells;
      cells.reserve(current->schema().size());
      while (!fields.done()) {
        auto v = parse_value(fields.next());
        if (!v) return fail(v.error().to_string());
        cells.push_back(std::move(*v));
      }
      if (std::string why = insert_problem(*current, *id, cells);
          !why.empty()) {
        return fail(why);
      }
      current->insert_with_id(*id, std::move(cells));
    } else {
      return fail("unknown snapshot record: " + std::string(line));
    }
  }
  if (!saw_header) return fail("empty snapshot");
  if (!finish_table()) return bad_cursor();
  journaling_ = was_journaling;
  if (sweep == Sweep::kNow) check_invariants();
  return {};
}

void Database::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  SPHINX_INVARIANT(slots_.size() == tables_.size() &&
                       images_.size() == tables_.size(),
                   "creation order out of sync with the table map");
  for (std::size_t slot = 0; slot < tables_.size(); ++slot) {
    const Table* table = tables_[slot].get();
    SPHINX_INVARIANT(table != nullptr, "null table in database");
    const auto it = slots_.find(table->name());
    SPHINX_INVARIANT(it != slots_.end() && it->second == slot,
                     "table registered under the wrong name: " +
                         table->name());
    table->check_invariants();
    const std::vector<RowSpan>& spans = images_.at(slot).spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SPHINX_INVARIANT(i == 0 || spans[i - 1].id < spans[i].id,
                       "image index out of id order in table " +
                           table->name());
      SPHINX_INVARIANT(image_ != nullptr &&
                           spans[i].offset + spans[i].length <= image_->size(),
                       "image index past the last image in table " +
                           table->name());
    }
  }
  for (const JournalEntry& e : journal_.entries()) {
    SPHINX_INVARIANT(slots_.contains(e.table),
                     "journal entry references unknown table: " + e.table);
  }
#endif
}

void Database::mark_stale(std::size_t slot, RowId id) {
  // Before the first image there is nothing to patch: it encodes every
  // row, and so does the first image of a table created after it.
  if (image_ == nullptr) return;
  TableImage& image = images_[slot];
  if (image.imaged && (image.stale.empty() || image.stale.back() != id)) {
    image.stale.push_back(id);
  }
}

void Database::on_insert(std::size_t slot, RowId id,
                         const std::vector<Value>& cells) {
  mark_stale(slot, id);
  if (!journaling_) return;
  JournalEntry entry;
  entry.op = JournalEntry::Op::kInsert;
  entry.table = tables_[slot]->name();
  entry.row = id;
  entry.cells = cells;
  journal_.append(std::move(entry));
}

void Database::on_update(std::size_t slot, RowId id, std::size_t column,
                         const Value& value) {
  mark_stale(slot, id);
  if (!journaling_) return;
  JournalEntry entry;
  entry.op = JournalEntry::Op::kUpdate;
  entry.table = tables_[slot]->name();
  entry.row = id;
  entry.column = column;
  entry.cells = {value};
  journal_.append(std::move(entry));
}

void Database::on_erase(std::size_t slot, RowId id) {
  mark_stale(slot, id);
  if (!journaling_) return;
  JournalEntry entry;
  entry.op = JournalEntry::Op::kErase;
  entry.table = tables_[slot]->name();
  entry.row = id;
  journal_.append(std::move(entry));
}

}  // namespace sphinx::db
