#pragma once
/// \file encoding.hpp
/// Shared text codec for the db persistence formats.
///
/// The journal, the checkpoint snapshot and core::CheckpointImage
/// serialize through the same line-oriented building blocks:
/// backslash-escaped fields, tagged "type:payload" values, and
/// "name=type[!]" column specs.  One codec for every format guarantees
/// they can never drift apart -- a snapshot restored and re-journaled
/// must reproduce the exact bytes the journal would have written for the
/// same cells.
///
/// Both directions are single-pass.  Writers append straight into the
/// caller's buffer: integers through std::to_chars, reals as
/// to_chars(general, 17) -- the "%.17g" text, so the bit pattern
/// round-trips.  Readers take string_views into the text and parse
/// numbers with std::from_chars.  They accept exactly what the writers
/// produce: no leading '+' or whitespace, no trailing bytes, and every
/// finite real including the subnormals.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace sphinx::db {

/// Appends `s` with tabs/newlines/backslashes escaped, so records stay
/// line-oriented.
void append_escaped(std::string& out, std::string_view s);
/// Length append_escaped() would add, without writing it.
[[nodiscard]] std::size_t escaped_size(std::string_view s) noexcept;
[[nodiscard]] Expected<std::string> unescape_field(std::string_view s);

/// Decimal unsigned integers (row ids, cursors, sequence numbers).
void append_uint(std::string& out, std::uint64_t v);
[[nodiscard]] Expected<std::uint64_t> parse_uint(std::string_view s);

/// Appends a value as "type:payload".  Inverse of parse_value.
void append_value(std::string& out, const Value& v);
/// Length append_value() would add, without writing it.
[[nodiscard]] std::size_t value_size(const Value& v) noexcept;
[[nodiscard]] Expected<Value> parse_value(std::string_view s);

/// Column spec "name=type", with a trailing '!' marking an indexed
/// column (the index set is part of the persisted schema).
void append_column(std::string& out, const Column& column);
/// Length append_column() would add, without writing it.
[[nodiscard]] std::size_t column_size(const Column& column) noexcept;
[[nodiscard]] Expected<Column> parse_column(std::string_view spec);

/// Pops the next line off `text`, without its '\n' (the last line may
/// lack one).
[[nodiscard]] std::string_view next_line(std::string_view& text) noexcept;

/// Walks the tab-separated fields of one record, left to right.  A
/// record of n tabs has n + 1 fields (an empty record has one, empty).
class Fields {
 public:
  explicit Fields(std::string_view record) noexcept : rest_(record) {}

  /// True once every field has been taken.
  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Takes the next field; an empty view once done().
  std::string_view next() noexcept;

 private:
  std::string_view rest_;
  bool done_ = false;
};

}  // namespace sphinx::db
