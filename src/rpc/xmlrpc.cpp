#include "rpc/xmlrpc.hpp"

#include <charconv>
#include <optional>
#include <system_error>

namespace sphinx::rpc {

std::int64_t XrValue::as_int() const {
  SPHINX_ASSERT(is_int(), "XrValue is not an int");
  return std::get<std::int64_t>(data_);
}

double XrValue::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  SPHINX_ASSERT(is_double(), "XrValue is not a double");
  return std::get<double>(data_);
}

bool XrValue::as_bool() const {
  SPHINX_ASSERT(is_bool(), "XrValue is not a bool");
  return std::get<bool>(data_);
}

const std::string& XrValue::as_string() const {
  SPHINX_ASSERT(is_string(), "XrValue is not a string");
  return std::get<std::string>(data_);
}

const XrValue::Array& XrValue::as_array() const {
  SPHINX_ASSERT(is_array(), "XrValue is not an array");
  return std::get<Array>(data_);
}

const XrValue::Struct& XrValue::as_struct() const {
  SPHINX_ASSERT(is_struct(), "XrValue is not a struct");
  return std::get<Struct>(data_);
}

const XrValue& XrValue::at(const std::string& key) const {
  const Struct& s = as_struct();
  const auto it = s.find(key);
  SPHINX_ASSERT(it != s.end(), "missing struct member: " + key);
  return it->second;
}

const XrValue* XrValue::find(const std::string& key) const noexcept {
  const Struct* s = std::get_if<Struct>(&data_);
  if (s == nullptr) return nullptr;
  const auto it = s->find(key);
  return it == s->end() ? nullptr : &it->second;
}

namespace {

constexpr std::string_view kDeclaration = "<?xml version=\"1.0\"?>";
/// Initial buffer for one envelope; a report is ~750 bytes, a plan ~2 KB.
constexpr std::size_t kEnvelopeReserve = 512;

// ---------------------------------------------------------------- writer

/// Appends `raw` with the five predefined entities escaped, copying the
/// runs of ordinary characters between them whole.
void append_escaped(std::string& out, std::string_view raw) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(raw.substr(run, i - run));
    out.append(entity);
    run = i + 1;
  }
  out.append(raw.substr(run));
}

/// `<tag>text</tag>`, or `<tag/>` when the text is empty.
void append_text_element(std::string& out, std::string_view tag,
                         std::string_view text) {
  out += '<';
  out += tag;
  if (text.empty()) {
    out += "/>";
    return;
  }
  out += '>';
  append_escaped(out, text);
  out += "</";
  out += tag;
  out += '>';
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// `%.17g`: the shortest general form that reads back to the same double.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

// ---------------------------------------------------------------- reader

/// The character data of one element: the raw runs between its children,
/// concatenated (a copy is made only when there is more than one run).
class RawText {
 public:
  void add(std::string_view run) {
    if (run.empty()) return;
    if (!joined_ && first_.empty()) {
      first_ = run;
      return;
    }
    if (!joined_) {
      buffer_.assign(first_);
      joined_ = true;
    }
    buffer_.append(run);
  }
  [[nodiscard]] std::string_view view() const noexcept {
    return joined_ ? std::string_view(buffer_) : first_;
  }

 private:
  std::string_view first_;
  std::string buffer_;
  bool joined_ = false;
};

[[nodiscard]] bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

[[nodiscard]] bool is_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
         c == ':';
}

/// The whole of `text` as a base-10 integer or a decimal double
/// (inf/nan included), or false.  One leading '+' is allowed, as
/// std::stoll/std::stod allowed it; from_chars itself takes none.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  if (text.starts_with('+')) {
    text.remove_prefix(1);
    if (text.starts_with('+') || text.starts_with('-')) return false;
  }
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

/// Cursor over one XML-RPC document.  Every method returns false at the
/// first problem and leaves it in error(): "xml_parse" for malformed XML,
/// "xmlrpc_parse" for well-formed XML that is not a valid XML-RPC
/// message.  Elements XML-RPC does not read are still checked for
/// well-formedness, so the accepted set is that of the old DOM parse
/// followed by a tree walk (kept as the oracle in tests/rpc_xml_test.cpp).
class WireReader {
 public:
  explicit WireReader(std::string_view text) noexcept : text_(text) {}

  [[nodiscard]] Unexpected<Error> error() const { return {error_}; }

  /// Leading whitespace, the optional <?xml?> declaration and the root's
  /// open tag.
  bool open_document(std::string_view& root, bool& empty) {
    skip_ws();
    if (text_.substr(pos_).starts_with("<?")) {
      const auto end = text_.find("?>", pos_);
      if (end == std::string_view::npos) return syntax("bad XML declaration");
      pos_ = end + 2;
    }
    skip_ws();
    return open_tag(root, empty);
  }

  /// Only whitespace may follow the root element.
  bool close_document() {
    skip_ws();
    return pos_ == text_.size() || syntax("trailing content after root");
  }

  /// Body of a <value> whose open tag was just read.
  bool value(bool empty, XrValue& out) {
    if (empty) {
      out = XrValue(std::string{});
      return true;
    }
    RawText raw;
    bool typed = false;
    const bool ok = content("value", raw, [&](std::string_view child, bool e) {
      if (typed) return skip(child, e);
      typed = true;
      return typed_value(child, e, out);
    });
    if (!ok) return false;
    // Bare character data inside <value> is a string per the spec.
    if (typed) return validate(raw.view());
    std::string_view text;
    if (!decode(raw.view(), text)) return false;
    out = XrValue(std::string(text));
    return true;
  }

  /// Body of `name` (open tag just read): its first <value> child decoded
  /// into `out`, every other child skipped.  `found` reports whether
  /// there was one.
  bool first_value(std::string_view name, bool empty, XrValue& out,
                   bool& found) {
    found = false;
    return empty || children(name, [&](std::string_view child, bool e) {
             if (found || child != "value") return skip(child, e);
             found = true;
             return value(e, out);
           });
  }

  /// Character data of a leaf element `name` (open tag just read), with
  /// any child elements skipped.  The view stays valid until the next
  /// call.
  bool leaf_text(std::string_view name, bool empty, std::string_view& out) {
    if (empty) {
      out = {};
      return true;
    }
    // Fast path: one run of text and then exactly `</name>`.
    const auto lt = text_.find('<', pos_);
    if (lt != std::string_view::npos &&
        text_.substr(lt).starts_with("</") &&
        text_.substr(lt + 2).starts_with(name) &&
        text_.substr(lt + 2 + name.size()).starts_with('>')) {
      const std::string_view raw = text_.substr(pos_, lt - pos_);
      pos_ = lt + 3 + name.size();
      return decode(raw, out);
    }
    RawText raw;
    bool had_children = false;
    if (!content(name, raw, [&](std::string_view child, bool e) {
          had_children = true;
          return skip(child, e);
        })) {
      return false;
    }
    if (!decode(raw.view(), out)) return false;
    // Without entities `out` may view raw's own buffer, which dies here.
    if (out.data() != scratch_.data()) {
      scratch_.assign(out);
      out = scratch_;
    }
    // Layout whitespace between child elements is not character data.
    if (had_children &&
        out.find_first_not_of(" \t\r\n") == std::string_view::npos) {
      out = {};
    }
    return true;
  }

  /// Consumes the rest of element `name` (open tag just read), checking
  /// it is well-formed.
  bool skip(std::string_view name, bool empty) {
    return empty || children(name, [&](std::string_view child, bool e) {
             return skip(child, e);
           });
  }

  /// content() for an element whose character data XML-RPC ignores: the
  /// data is only checked for bad entity references.
  template <typename OnChild>
  bool children(std::string_view name, OnChild&& on_child) {
    RawText raw;
    return content(name, raw, on_child) && validate(raw.view());
  }

  /// Records a well-formed message that is not valid XML-RPC.
  bool invalid(std::string what) {
    error_ = Error{"xmlrpc_parse", std::move(what)};
    return false;
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  void rewind(std::size_t pos) noexcept { pos_ = pos; }

 private:
  /// Walks the content of `name` (open tag just read) up to and including
  /// its close tag: character data goes to `raw`; each child's open tag is
  /// read and handed to `on_child(child, empty)`, which consumes the rest.
  template <typename OnChild>
  bool content(std::string_view name, RawText& raw, OnChild&& on_child) {
    while (true) {
      const auto lt = text_.find('<', pos_);
      if (lt == std::string_view::npos) {
        pos_ = text_.size();
        return syntax("unexpected end inside <" + std::string(name) + ">");
      }
      raw.add(text_.substr(pos_, lt - pos_));
      pos_ = lt;
      if (text_.substr(pos_).starts_with("</")) {
        pos_ += 2;
        const std::string_view closing = read_name();
        if (closing != name) {
          return syntax("mismatched close tag </" + std::string(closing) +
                        ">");
        }
        skip_ws();
        return take() == '>' || syntax("expected '>' in close tag");
      }
      std::string_view child;
      bool empty = false;
      if (!open_tag(child, empty) || !on_child(child, empty)) return false;
    }
  }

  bool syntax(const std::string& what) {
    error_ = Error{"xml_parse", what + " at offset " + std::to_string(pos_)};
    return false;
  }

  char take() noexcept { return pos_ < text_.size() ? text_[pos_++] : '\0'; }
  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() noexcept {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  std::string_view read_name() noexcept {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// `<name attr="v"...>` or `<name .../>`.  Attributes are checked and
  /// dropped: XML-RPC defines none.
  bool open_tag(std::string_view& name, bool& empty) {
    if (take() != '<') return syntax("expected '<'");
    name = read_name();
    if (name.empty()) return syntax("empty element name");
    while (true) {
      skip_ws();
      if (peek() == '/') {
        ++pos_;
        empty = true;
        return take() == '>' || syntax("expected '>' after '/'");
      }
      if (peek() == '>') {
        ++pos_;
        empty = false;
        return true;
      }
      if (read_name().empty()) return syntax("expected attribute name");
      skip_ws();
      if (take() != '=') return syntax("expected '='");
      skip_ws();
      const char quote = take();
      if (quote != '"' && quote != '\'') return syntax("expected quote");
      const auto close = text_.find(quote, pos_);
      if (close == std::string_view::npos) {
        pos_ = text_.size();
        return syntax("unterminated attribute");
      }
      const std::string_view raw = text_.substr(pos_, close - pos_);
      pos_ = close + 1;
      if (!validate(raw)) return false;
    }
  }

  bool validate(std::string_view raw) {
    std::string_view ignored;
    return raw.find('&') == std::string_view::npos || decode(raw, ignored);
  }

  /// Decodes the five predefined entities in `raw`.  `out` is `raw`
  /// itself when it holds none, else a view of scratch_.
  bool decode(std::string_view raw, std::string_view& out) {
    auto amp = raw.find('&');
    if (amp == std::string_view::npos) {
      out = raw;
      return true;
    }
    scratch_.clear();
    std::size_t run = 0;
    while (amp != std::string_view::npos) {
      scratch_.append(raw.substr(run, amp - run));
      const auto semi = raw.find(';', amp);
      if (semi == std::string_view::npos) return syntax("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") scratch_ += '&';
      else if (entity == "lt") scratch_ += '<';
      else if (entity == "gt") scratch_ += '>';
      else if (entity == "quot") scratch_ += '"';
      else if (entity == "apos") scratch_ += '\'';
      else return syntax("unknown entity: " + std::string(entity));
      run = semi + 1;
      amp = raw.find('&', run);
    }
    scratch_.append(raw.substr(run));
    out = scratch_;
    return true;
  }

  bool typed_value(std::string_view type, bool empty, XrValue& out) {
    if (type == "array") return array(empty, out);
    if (type == "struct") return structure(empty, out);
    const bool is_int = type == "i8" || type == "int" || type == "i4";
    if (!is_int && type != "double" && type != "boolean" && type != "string") {
      return invalid("unknown value type <" + std::string(type) + ">");
    }
    std::string_view text;
    if (!leaf_text(type, empty, text)) return false;
    if (is_int) {
      std::int64_t v = 0;
      if (!parse_number(text, v)) return invalid("bad int: " + std::string(text));
      out = XrValue(v);
    } else if (type == "double") {
      double v = 0.0;
      if (!parse_number(text, v)) {
        return invalid("bad double: " + std::string(text));
      }
      out = XrValue(v);
    } else if (type == "boolean") {
      if (text != "0" && text != "1") {
        return invalid("bad boolean: " + std::string(text));
      }
      out = XrValue(text == "1");
    } else {
      out = XrValue(std::string(text));
    }
    return true;
  }

  /// <array>: the first <data> child holds the items; other children are
  /// ignored.
  bool array(bool empty, XrValue& out) {
    XrValue::Array items;
    bool have_data = false;
    if (!empty && !children("array", [&](std::string_view child, bool e) {
          if (have_data || child != "data") return skip(child, e);
          have_data = true;
          return data(e, items);
        })) {
      return false;
    }
    if (!have_data) return invalid("array without <data>");
    out = XrValue(std::move(items));
    return true;
  }

  bool data(bool empty, XrValue::Array& items) {
    return empty || children("data", [&](std::string_view child, bool e) {
             if (child != "value") {
               return invalid("expected <value>, got <" + std::string(child) +
                              ">");
             }
             items.emplace_back();
             return value(e, items.back());
           });
  }

  /// <struct>: every child is a <member>; a repeated name keeps its first
  /// value.
  bool structure(bool empty, XrValue& out) {
    XrValue::Struct members;
    if (!empty && !children("struct", [&](std::string_view child, bool e) {
          if (child != "member") return invalid("struct child is not <member>");
          return member(e, members);
        })) {
      return false;
    }
    out = XrValue(std::move(members));
    return true;
  }

  /// <member>: its first <name> and first <value>, in either order.
  bool member(bool empty, XrValue::Struct& members) {
    if (empty) return invalid("incomplete <member>");
    std::string key;
    XrValue v;
    bool have_name = false;
    bool have_value = false;
    const bool ok = children("member", [&](std::string_view child, bool e) {
      if (!have_name && child == "name") {
        have_name = true;
        std::string_view text;
        if (!leaf_text(child, e, text)) return false;
        key.assign(text);
        return true;
      }
      if (!have_value && child == "value") {
        have_value = true;
        return value(e, v);
      }
      return skip(child, e);
    });
    if (!ok) return false;
    if (!have_name || !have_value) return invalid("incomplete <member>");
    // Members arrive in key order from serialize(), so the end is the
    // right hint; a duplicate key keeps its first value either way.
    members.emplace_hint(members.end(), std::move(key), std::move(v));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string scratch_;
  Error error_;
};

}  // namespace

void XrValue::write(std::string& out) const {
  out += "<value>";
  if (is_int()) {
    out += "<i8>";
    append_int(out, std::get<std::int64_t>(data_));
    out += "</i8>";
  } else if (is_double()) {
    out += "<double>";
    append_double(out, std::get<double>(data_));
    out += "</double>";
  } else if (is_bool()) {
    out += std::get<bool>(data_) ? "<boolean>1</boolean>"
                                 : "<boolean>0</boolean>";
  } else if (is_string()) {
    append_text_element(out, "string", std::get<std::string>(data_));
  } else if (is_array()) {
    const Array& items = std::get<Array>(data_);
    if (items.empty()) {
      out += "<array><data/></array>";
    } else {
      out += "<array><data>";
      for (const XrValue& item : items) item.write(out);
      out += "</data></array>";
    }
  } else {
    const Struct& members = std::get<Struct>(data_);
    if (members.empty()) {
      out += "<struct/>";
    } else {
      out += "<struct>";
      for (const auto& [k, v] : members) {
        out += "<member>";
        append_text_element(out, "name", k);
        v.write(out);
        out += "</member>";
      }
      out += "</struct>";
    }
  }
  out += "</value>";
}

Expected<XrValue> XrValue::parse(std::string_view xml) {
  WireReader reader(xml);
  std::string_view root;
  bool empty = false;
  if (!reader.open_document(root, empty)) return reader.error();
  if (root != "value") {
    return make_error("xmlrpc_parse",
                      "expected <value>, got <" + std::string(root) + ">");
  }
  XrValue out;
  if (!reader.value(empty, out) || !reader.close_document()) {
    return reader.error();
  }
  return out;
}

std::string MethodCall::serialize() const {
  std::string out;
  out.reserve(kEnvelopeReserve);
  out += kDeclaration;
  out += "<methodCall>";
  append_text_element(out, "methodName", method);
  if (params.empty()) {
    out += "<params/>";
  } else {
    out += "<params>";
    for (const XrValue& p : params) {
      out += "<param>";
      p.write(out);
      out += "</param>";
    }
    out += "</params>";
  }
  out += "</methodCall>";
  return out;
}

Expected<MethodCall> MethodCall::parse(std::string_view xml) {
  WireReader reader(xml);
  std::string_view root;
  bool empty = false;
  if (!reader.open_document(root, empty)) return reader.error();
  if (root != "methodCall") {
    return make_error("xmlrpc_parse", "not a <methodCall>");
  }
  MethodCall call;
  bool have_name = false;
  bool have_params = false;
  const auto on_param = [&](std::string_view param, bool e) {
    bool found = false;
    call.params.emplace_back();
    if (!reader.first_value(param, e, call.params.back(), found)) return false;
    return found || reader.invalid("<param> without <value>");
  };
  const auto on_child = [&](std::string_view child, bool e) {
    if (!have_name && child == "methodName") {
      have_name = true;
      std::string_view text;
      if (!reader.leaf_text(child, e, text)) return false;
      call.method.assign(text);
      return true;
    }
    if (!have_params && child == "params") {
      have_params = true;
      return e || reader.children(child, on_param);
    }
    return reader.skip(child, e);
  };
  if ((!empty && !reader.children(root, on_child)) ||
      !reader.close_document()) {
    return reader.error();
  }
  if (call.method.empty()) {
    return make_error("xmlrpc_parse", "missing <methodName>");
  }
  return call;
}

std::string MethodResponse::serialize() const {
  std::string out;
  out.reserve(kEnvelopeReserve);
  out += kDeclaration;
  if (is_fault) {
    XrValue::Struct f;
    f.emplace("faultCode", XrValue(fault.code));
    f.emplace("faultString", XrValue(fault.message));
    out += "<methodResponse><fault>";
    XrValue(std::move(f)).write(out);
    out += "</fault></methodResponse>";
  } else {
    out += "<methodResponse><params><param>";
    value.write(out);
    out += "</param></params></methodResponse>";
  }
  return out;
}

Expected<MethodResponse> MethodResponse::parse(std::string_view xml) {
  WireReader reader(xml);
  std::string_view root;
  bool empty = false;
  if (!reader.open_document(root, empty)) return reader.error();
  if (root != "methodResponse") {
    return make_error("xmlrpc_parse", "not a <methodResponse>");
  }
  // The first <fault> wins over <params> wherever the two appear, so a
  // <params> that is not a valid response is only an error if no fault
  // follows; it is then re-read as plain XML to keep the cursor in step.
  XrValue fault_value;
  XrValue result;
  bool have_fault = false;
  bool have_params = false;
  std::optional<Error> params_error;
  const auto read_params = [&](std::string_view params, bool e) {
    if (e) return reader.invalid("response without params or fault");
    bool first = true;
    return reader.children(params,
                           [&](std::string_view param, bool pe) {
                             if (!first) return reader.skip(param, pe);
                             first = false;
                             bool found = false;
                             if (!reader.first_value(param, pe, result,
                                                     found)) {
                               return false;
                             }
                             return found ||
                                    reader.invalid("param without value");
                           }) &&
           (!first || reader.invalid("response without params or fault"));
  };
  const auto on_child = [&](std::string_view child, bool e) {
    if (!have_fault && child == "fault") {
      have_fault = true;
      bool found = false;
      if (!reader.first_value(child, e, fault_value, found)) return false;
      return found || reader.invalid("fault without value");
    }
    if (!have_params && child == "params") {
      have_params = true;
      if (have_fault) return reader.skip(child, e);
      const std::size_t start = reader.position();
      if (read_params(child, e)) return true;
      params_error = reader.error().error;
      reader.rewind(start);
      return reader.skip(child, e);
    }
    return reader.skip(child, e);
  };
  if ((!empty && !reader.children(root, on_child)) ||
      !reader.close_document()) {
    return reader.error();
  }

  if (have_fault) {
    if (!fault_value.has("faultCode") || !fault_value.has("faultString")) {
      return make_error("xmlrpc_parse", "fault struct incomplete");
    }
    const XrValue& code = fault_value.at("faultCode");
    const XrValue& message = fault_value.at("faultString");
    if (!code.is_int() || !message.is_string()) {
      return make_error("xmlrpc_parse", "fault struct mistyped");
    }
    return MethodResponse::failure(code.as_int(), message.as_string());
  }
  if (!have_params) {
    return make_error("xmlrpc_parse", "response without params or fault");
  }
  if (params_error) return Unexpected<Error>{std::move(*params_error)};
  return MethodResponse::success(std::move(result));
}

}  // namespace sphinx::rpc
