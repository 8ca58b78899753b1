#include "db/encoding.hpp"

#include <charconv>
#include <cstring>

namespace sphinx::db {
namespace {

/// Longest to_chars output below: "%.17g" of a double is at most 24
/// bytes ("-2.2250738585072014e-308"), an int64 20.
constexpr std::size_t kNumberChars = 32;

/// Formats a numeric value's payload into `buf`; returns its length.
std::size_t format_number(const Value& v, char* buf) noexcept {
  const auto r =
      v.type() == ValueType::kInt
          ? std::to_chars(buf, buf + kNumberChars, v.as_int())
          : std::to_chars(buf, buf + kNumberChars, v.as_real(),
                          std::chars_format::general, 17);
  return static_cast<std::size_t>(r.ptr - buf);
}

/// Parses all of `s` into `out`.  False when the text is empty, a byte
/// is left over or the value is out of range.
template <typename T, typename... Format>
bool parse_number(std::string_view s, T& out, Format... format) noexcept {
  const char* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, out, format...);
  return r.ec == std::errc{} && r.ptr == end;
}

Expected<ValueType> parse_type(std::string_view s) {
  if (s == "null") return ValueType::kNull;
  if (s == "int") return ValueType::kInt;
  if (s == "real") return ValueType::kReal;
  if (s == "text") return ValueType::kText;
  if (s == "bool") return ValueType::kBool;
  return make_error("journal_parse",
                    "unknown column type: " + std::string(s));
}

}  // namespace

void append_escaped(std::string& out, std::string_view s) {
  // Copy the plain stretches whole; only the three specials are expanded.
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '\\' && c != '\t' && c != '\n') continue;
    out.append(s.data() + start, i - start);
    out += '\\';
    out += c == '\\' ? '\\' : c == '\t' ? 't' : 'n';
    start = i + 1;
  }
  out.append(s.data() + start, s.size() - start);
}

std::size_t escaped_size(std::string_view s) noexcept {
  std::size_t n = s.size();
  for (const char c : s) {
    if (c == '\\' || c == '\t' || c == '\n') ++n;
  }
  return n;
}

Expected<std::string> unescape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) {
      return make_error("journal_parse", "dangling escape");
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: return make_error("journal_parse", "unknown escape");
    }
  }
  return out;
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[kNumberChars];
  const auto r = std::to_chars(buf, buf + kNumberChars, v);
  out.append(buf, r.ptr);
}

Expected<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t v = 0;
  if (!parse_number(s, v)) {
    return make_error("journal_parse", "bad unsigned: " + std::string(s));
  }
  return v;
}

void append_value(std::string& out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: out += "n:"; return;
    case ValueType::kInt:
    case ValueType::kReal: {
      char buf[kNumberChars];
      const std::size_t n = format_number(v, buf);
      out += v.type() == ValueType::kInt ? "i:" : "r:";
      out.append(buf, n);
      return;
    }
    case ValueType::kText:
      out += "s:";
      append_escaped(out, v.as_text());
      return;
    case ValueType::kBool: out += v.as_bool() ? "b:1" : "b:0"; return;
  }
}

std::size_t value_size(const Value& v) noexcept {
  switch (v.type()) {
    case ValueType::kNull: return 2;
    case ValueType::kInt:
    case ValueType::kReal: {
      char buf[kNumberChars];
      return 2 + format_number(v, buf);
    }
    case ValueType::kText: return 2 + escaped_size(v.as_text());
    case ValueType::kBool: return 3;
  }
  return 2;
}

Expected<Value> parse_value(std::string_view s) {
  if (s.size() < 2 || s[1] != ':') {
    return make_error("journal_parse",
                      "bad value encoding: " + std::string(s));
  }
  const std::string_view payload = s.substr(2);
  switch (s[0]) {
    case 'n':
      if (!payload.empty()) break;
      return Value();
    case 'i': {
      std::int64_t v = 0;
      if (!parse_number(payload, v)) {
        return make_error("journal_parse", "bad int: " + std::string(payload));
      }
      return Value(v);
    }
    case 'r': {
      double v = 0.0;
      if (!parse_number(payload, v, std::chars_format::general)) {
        return make_error("journal_parse",
                          "bad real: " + std::string(payload));
      }
      return Value(v);
    }
    case 's': {
      auto text = unescape_field(payload);
      if (!text) return Unexpected<Error>{text.error()};
      return Value(std::move(*text));
    }
    case 'b':
      if (payload != "0" && payload != "1") break;
      return Value(payload == "1");
    default: return make_error("journal_parse", "unknown value tag");
  }
  return make_error("journal_parse", "bad value encoding: " + std::string(s));
}

void append_column(std::string& out, const Column& column) {
  // A trailing '!' marks an indexed column, so recovery rebuilds the
  // same hash indexes the original schema declared.
  append_escaped(out, column.name);
  out += '=';
  out += to_string(column.type);
  if (column.indexed) out += '!';
}

std::size_t column_size(const Column& column) noexcept {
  return escaped_size(column.name) + 1 + std::strlen(to_string(column.type)) +
         (column.indexed ? 1 : 0);
}

Expected<Column> parse_column(std::string_view spec) {
  const auto eq = spec.rfind('=');
  if (eq == std::string_view::npos) {
    return make_error("journal_parse",
                      "bad column spec: " + std::string(spec));
  }
  auto name = unescape_field(spec.substr(0, eq));
  if (!name) return Unexpected<Error>{name.error()};
  std::string_view type_text = spec.substr(eq + 1);
  const bool is_indexed = !type_text.empty() && type_text.back() == '!';
  if (is_indexed) type_text.remove_suffix(1);
  auto type = parse_type(type_text);
  if (!type) return Unexpected<Error>{type.error()};
  return Column{std::move(*name), *type, is_indexed};
}

std::string_view next_line(std::string_view& text) noexcept {
  const auto newline = text.find('\n');
  const std::string_view line = text.substr(0, newline);
  text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                       : newline + 1);
  return line;
}

std::string_view Fields::next() noexcept {
  if (done_) return {};
  const auto tab = rest_.find('\t');
  if (tab == std::string_view::npos) {
    done_ = true;
    return rest_;
  }
  const std::string_view field = rest_.substr(0, tab);
  rest_.remove_prefix(tab + 1);
  return field;
}

}  // namespace sphinx::db
