#include "core/checkpoint.hpp"

#include "db/encoding.hpp"

namespace sphinx::core {

std::string CheckpointImage::serialize() const {
  // Header + dirty-queue line, then the database snapshot verbatim.  The
  // sim time reuses the journal's real encoding so the bit pattern
  // round-trips.
  std::string out = "#ckpt\t1\t";
  db::append_uint(out, seq);
  out += '\t';
  db::append_value(out, db::Value(at));
  out += "\nD";
  for (const db::RowId row : dirty_rows) {
    out += '\t';
    db::append_uint(out, row);
  }
  out += '\n';
  out += *database;
  return out;
}

Expected<CheckpointImage> CheckpointImage::parse(const std::string& text) {
  const auto fail = [](const std::string& what) {
    return Unexpected<Error>{Error{"checkpoint_parse", what}};
  };
  if (text.empty()) return fail("empty checkpoint");
  std::string_view rest = text;
  CheckpointImage image;
  const std::string_view header_line = db::next_line(rest);
  db::Fields header(header_line);
  if (header.next() != "#ckpt" || header.next() != "1" || header.done()) {
    return fail("bad checkpoint header: " + std::string(header_line));
  }
  const std::string_view seq_text = header.next();
  auto seq = db::parse_uint(seq_text);
  if (!seq) return fail("bad checkpoint seq: " + std::string(seq_text));
  image.seq = *seq;
  if (header.done()) {
    return fail("bad checkpoint header: " + std::string(header_line));
  }
  auto at = db::parse_value(header.next());
  if (!at) return Unexpected<Error>{at.error()};
  if (at->type() != db::ValueType::kReal || !header.done()) {
    return fail("bad checkpoint header: " + std::string(header_line));
  }
  image.at = at->as_real();

  if (rest.empty()) return fail("missing dirty-queue line");
  const std::string_view dirty_line = db::next_line(rest);
  db::Fields dirty(dirty_line);
  if (dirty.next() != "D") {
    return fail("bad dirty-queue line: " + std::string(dirty_line));
  }
  while (!dirty.done()) {
    const std::string_view row_text = dirty.next();
    auto row = db::parse_uint(row_text);
    if (!row) return fail("bad dirty row id: " + std::string(row_text));
    image.dirty_rows.push_back(*row);
  }
  // The rest is the database snapshot, byte-for-byte.
  image.database = std::make_shared<const std::string>(rest);
  return image;
}

}  // namespace sphinx::core
