#pragma once
/// \file xmlrpc.hpp
/// XML-RPC data model and method-call/response envelopes.
///
/// The SPHINX client and server exchange GSI-enabled XML-RPC messages
/// (paper Figure 1).  This implements the XML-RPC value system (int,
/// double, boolean, string, array, struct), <methodCall> and
/// <methodResponse> envelopes including <fault>.
///
/// The codec is single-pass: serialize() appends straight into one
/// string and parse() walks the payload once with a cursor, building
/// XrValue directly.  No XML document tree is built on the wire path.
/// The parser accepts a small XML subset (elements, attributes, the
/// five predefined entities, an optional <?xml?> declaration) and
/// ignores elements XML-RPC does not define; numeric scalars must be
/// the whole element text.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace sphinx::rpc {

/// An XML-RPC value.  Arrays and structs nest arbitrarily.
class XrValue {
 public:
  using Array = std::vector<XrValue>;
  using Struct = std::map<std::string, XrValue>;

  XrValue() : data_(std::string{}) {}  ///< XML-RPC has no null; default ""
  XrValue(std::int64_t v) : data_(v) {}
  XrValue(int v) : data_(static_cast<std::int64_t>(v)) {}
  XrValue(std::uint64_t v) : data_(static_cast<std::int64_t>(v)) {}
  XrValue(double v) : data_(v) {}
  XrValue(bool v) : data_(v) {}
  XrValue(std::string v) : data_(std::move(v)) {}
  XrValue(const char* v) : data_(std::string(v)) {}
  XrValue(Array v) : data_(std::move(v)) {}
  XrValue(Struct v) : data_(std::move(v)) {}

  [[nodiscard]] bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_double() const noexcept { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_struct() const noexcept { return std::holds_alternative<Struct>(data_); }

  /// Typed accessors; throw AssertionError on type mismatch.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  ///< accepts int too
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Struct& as_struct() const;

  /// Struct member access; throws if not a struct or key missing.
  [[nodiscard]] const XrValue& at(const std::string& key) const;
  /// Struct member lookup: nullptr when this is not a struct or lacks
  /// `key`.  One map probe, where has() + at() would take two.
  [[nodiscard]] const XrValue* find(const std::string& key) const noexcept;
  /// True if this is a struct containing `key`.
  [[nodiscard]] bool has(const std::string& key) const noexcept {
    return find(key) != nullptr;
  }

  /// Appends this value as a compact <value> element to `out`.
  void write(std::string& out) const;
  /// Decodes an XML document whose root element is a <value>.
  [[nodiscard]] static Expected<XrValue> parse(std::string_view xml);

  friend bool operator==(const XrValue& a, const XrValue& b) noexcept {
    return a.data_ == b.data_;
  }

 private:
  std::variant<std::int64_t, double, bool, std::string, Array, Struct> data_;
};

/// A <methodCall>.
struct MethodCall {
  std::string method;
  std::vector<XrValue> params;

  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static Expected<MethodCall> parse(std::string_view xml);
};

/// XML-RPC fault payload.
struct Fault {
  std::int64_t code = 0;
  std::string message;
};

/// A <methodResponse>: either one return value or a fault.
struct MethodResponse {
  XrValue value;
  bool is_fault = false;
  Fault fault;

  [[nodiscard]] static MethodResponse success(XrValue v) {
    MethodResponse r;
    r.value = std::move(v);
    return r;
  }
  [[nodiscard]] static MethodResponse failure(std::int64_t code,
                                              std::string message) {
    MethodResponse r;
    r.is_fault = true;
    r.fault = Fault{code, std::move(message)};
    return r;
  }

  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static Expected<MethodResponse> parse(std::string_view xml);
};

}  // namespace sphinx::rpc
