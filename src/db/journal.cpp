#include "db/journal.hpp"

#include "common/contracts.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {
namespace {

std::size_t digit_count(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

/// Serialized line length of one entry, matching append_entry_text.
std::size_t entry_text_size(const JournalEntry& e) {
  // Every op starts "X\t<table>" and ends "\n".
  std::size_t n = 1 + 1 + escaped_size(e.table) + 1;
  switch (e.op) {
    case JournalEntry::Op::kCreateTable:
      for (const Column& col : e.schema) n += 1 + column_size(col);
      break;
    case JournalEntry::Op::kInsert:
      n += 1 + digit_count(e.row);
      for (const Value& v : e.cells) n += 1 + value_size(v);
      break;
    case JournalEntry::Op::kUpdate:
      n += 1 + digit_count(e.row) + 1 + digit_count(e.column) + 1 +
           value_size(e.cells.at(0));
      break;
    case JournalEntry::Op::kErase:
      n += 1 + digit_count(e.row);
      break;
  }
  return n;
}

void append_entry_text(const JournalEntry& e, std::string& out) {
  switch (e.op) {
    case JournalEntry::Op::kCreateTable:
      out += "C\t";
      append_escaped(out, e.table);
      for (const Column& col : e.schema) {
        out += '\t';
        append_column(out, col);
      }
      break;
    case JournalEntry::Op::kInsert:
      out += "I\t";
      append_escaped(out, e.table);
      out += '\t';
      append_uint(out, e.row);
      for (const Value& v : e.cells) {
        out += '\t';
        append_value(out, v);
      }
      break;
    case JournalEntry::Op::kUpdate:
      out += "U\t";
      append_escaped(out, e.table);
      out += '\t';
      append_uint(out, e.row);
      out += '\t';
      append_uint(out, e.column);
      out += '\t';
      append_value(out, e.cells.at(0));
      break;
    case JournalEntry::Op::kErase:
      out += "E\t";
      append_escaped(out, e.table);
      out += '\t';
      append_uint(out, e.row);
      break;
  }
  out += '\n';
}

std::size_t header_text_size(std::uint64_t base_seq) noexcept {
  // "#seq\t<base>\n", emitted only once the journal has been truncated.
  return base_seq == 0 ? 0 : 4 + 1 + digit_count(base_seq) + 1;
}

/// Parses one record line (not a header) into an entry.
Expected<JournalEntry> parse_entry(std::string_view line) {
  const auto bad = [](const std::string& what) {
    return Unexpected<Error>{Error{"journal_parse", what}};
  };
  Fields fields(line);
  const std::string_view op = fields.next();
  if (fields.done()) return bad("short record: " + std::string(line));
  JournalEntry entry;
  auto table = unescape_field(fields.next());
  if (!table) return Unexpected<Error>{table.error()};
  entry.table = std::move(*table);

  if (op == "C") {
    entry.op = JournalEntry::Op::kCreateTable;
    while (!fields.done()) {
      auto column = parse_column(fields.next());
      if (!column) return Unexpected<Error>{column.error()};
      entry.schema.push_back(std::move(*column));
    }
    return entry;
  }
  if (op == "I") {
    entry.op = JournalEntry::Op::kInsert;
  } else if (op == "U") {
    entry.op = JournalEntry::Op::kUpdate;
  } else if (op == "E") {
    entry.op = JournalEntry::Op::kErase;
  } else {
    return bad("unknown op: " + std::string(op));
  }
  if (fields.done()) return bad("short record: " + std::string(line));
  auto row = parse_uint(fields.next());
  if (!row) return Unexpected<Error>{row.error()};
  entry.row = *row;
  switch (entry.op) {
    case JournalEntry::Op::kInsert:
      while (!fields.done()) {
        auto v = parse_value(fields.next());
        if (!v) return Unexpected<Error>{v.error()};
        entry.cells.push_back(std::move(*v));
      }
      break;
    case JournalEntry::Op::kUpdate: {
      if (fields.done()) return bad("bad update");
      auto column = parse_uint(fields.next());
      if (!column) return Unexpected<Error>{column.error()};
      entry.column = *column;
      if (fields.done()) return bad("bad update");
      auto v = parse_value(fields.next());
      if (!v) return Unexpected<Error>{v.error()};
      entry.cells.push_back(std::move(*v));
      if (!fields.done()) return bad("bad update");
      break;
    }
    default:
      if (!fields.done()) return bad("bad erase");
      break;
  }
  return entry;
}

}  // namespace

void Journal::truncate_before(std::uint64_t seq) {
  if (seq <= base_seq_) return;
  const std::uint64_t limit = next_seq();
  if (seq > limit) seq = limit;
  entries_.erase(entries_.begin(),
                 entries_.begin() +
                     static_cast<std::ptrdiff_t>(seq - base_seq_));
  base_seq_ = seq;
}

void Journal::clear() noexcept {
  base_seq_ += entries_.size();
  entries_.clear();
}

void Journal::adopt_suffix(const Journal& src, std::uint64_t from_seq) {
  entries_.clear();
  base_seq_ = std::max(from_seq, src.base_seq_);
  const std::uint64_t limit = src.next_seq();
  SPHINX_PRECONDITION(base_seq_ <= limit,
                      "adopt_suffix start past the source journal's end");
  entries_.assign(
      src.entries_.begin() +
          static_cast<std::ptrdiff_t>(base_seq_ - src.base_seq_),
      src.entries_.end());
}

std::size_t Journal::size_bytes() const noexcept {
  std::size_t n = header_text_size(base_seq_);
  for (const JournalEntry& e : entries_) n += entry_text_size(e);
  return n;
}

std::string Journal::serialize() const {
  std::string out;
  out.reserve(size_bytes());
  if (base_seq_ != 0) {
    out += "#seq\t";
    append_uint(out, base_seq_);
    out += '\n';
  }
  for (const JournalEntry& e : entries_) append_entry_text(e, out);
  SPHINX_POSTCONDITION(out.size() == size_bytes(),
                       "size_bytes() disagrees with serialize()");
  return out;
}

Expected<Journal> Journal::parse(const std::string& text) {
  Journal journal;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::string_view line = next_line(rest);
    if (line.empty()) continue;
    if (line[0] != '#') {
      auto entry = parse_entry(line);
      if (!entry) return Unexpected<Error>{entry.error()};
      journal.append(std::move(*entry));
      continue;
    }
    // Header line: "#seq\t<base>".  Legacy (pre-compaction) logs have no
    // header and parse with base 0.
    Fields fields(line);
    if (fields.next() != "#seq" || fields.done() ||
        !journal.entries_.empty() || journal.base_seq_ != 0) {
      return make_error("journal_parse", "bad header: " + std::string(line));
    }
    const std::string_view seq = fields.next();
    auto base = parse_uint(seq);
    if (!base || !fields.done()) {
      return make_error("journal_parse", "bad header seq: " + std::string(seq));
    }
    journal.base_seq_ = *base;
  }
  return journal;
}

}  // namespace sphinx::db
