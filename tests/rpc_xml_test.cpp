// Tests for the single-pass XML-RPC codec, including a differential
// test against the DOM codec (XmlNode tree + xml_write/xml_parse) the
// wire path used before, which this file keeps as the oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/codec.hpp"
#include "rpc/xmlrpc.hpp"
#include "workflow/generator.hpp"

namespace sphinx::rpc {
namespace {

// --- the DOM layer ----------------------------------------------------------
// The XML document model the wire path used before the single-pass
// codec: an XmlNode tree, xml_write and xml_parse.  Nothing in the
// library uses it any more; it stays here, unchanged, as the oracle of
// XmlRpcDifferential.SinglePassCodecMatchesDomCodec (and the Xml tests
// below pin the oracle itself).

/// One XML element.  Children are owned; text is the concatenated
/// character data directly inside this element.
struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<XmlNode> children;
  std::string text;

  XmlNode() = default;
  explicit XmlNode(std::string n) : name(std::move(n)) {}
  XmlNode(std::string n, std::string t) : name(std::move(n)), text(std::move(t)) {}

  /// Appends a child and returns a reference to it.
  XmlNode& add_child(XmlNode child) {
    children.push_back(std::move(child));
    return children.back();
  }

  /// First child with the given element name; nullptr if absent.
  [[nodiscard]] const XmlNode* child(const std::string& name) const noexcept {
    for (const XmlNode& c : children) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }

  /// All children with the given element name.
  [[nodiscard]] std::vector<const XmlNode*> children_named(
      const std::string& name) const {
    std::vector<const XmlNode*> out;
    for (const XmlNode& c : children) {
      if (c.name == name) out.push_back(&c);
    }
    return out;
  }

  /// Attribute value or empty string.
  [[nodiscard]] std::string attribute(const std::string& key) const {
    const auto it = attributes.find(key);
    return it == attributes.end() ? std::string{} : it->second;
  }
};

/// Escapes the five predefined entities in character data.
std::string xml_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

void write_node(const XmlNode& node, std::string& out, int indent, int depth) {
  const std::string pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ')
                  : std::string{};
  out += pad + "<" + node.name;
  for (const auto& [k, v] : node.attributes) {
    out += " " + k + "=\"" + xml_escape(v) + "\"";
  }
  if (node.children.empty() && node.text.empty()) {
    out += "/>";
    if (indent >= 0) out += '\n';
    return;
  }
  out += ">";
  out += xml_escape(node.text);
  if (!node.children.empty()) {
    if (indent >= 0) out += '\n';
    for (const XmlNode& c : node.children) {
      write_node(c, out, indent, depth + 1);
    }
    out += pad;
  }
  out += "</" + node.name + ">";
  if (indent >= 0) out += '\n';
}

/// Recursive-descent XML parser over the subset xml_write() produces.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Expected<XmlNode> parse() {
    skip_ws();
    if (!skip_declaration()) return fail("bad XML declaration");
    skip_ws();
    auto root = parse_element();
    if (!root) return root;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content after root");
    return root;
  }

 private:
  Unexpected<Error> fail(const std::string& what) const {
    return make_error("xml_parse",
                      what + " at offset " + std::to_string(pos_));
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept {
    return at_end() ? '\0' : text_[pos_];
  }
  char take() noexcept { return at_end() ? '\0' : text_[pos_++]; }

  void skip_ws() noexcept {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
  }

  bool skip_declaration() noexcept {
    if (text_.compare(pos_, 2, "<?") != 0) return true;
    const auto end = text_.find("?>", pos_);
    if (end == std::string::npos) return false;
    pos_ = end + 2;
    return true;
  }

  [[nodiscard]] bool name_char(char c) const noexcept {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  std::string parse_name() {
    std::string name;
    while (!at_end() && name_char(peek())) name += take();
    return name;
  }

  Expected<std::string> decode_text(std::string_view raw) const {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const auto semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return make_error("xml_parse", "unterminated entity");
      }
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else return make_error("xml_parse", "unknown entity: " + std::string(entity));
      i = semi;
    }
    return out;
  }

  Expected<XmlNode> parse_element() {
    if (take() != '<') return fail("expected '<'");
    XmlNode node;
    node.name = parse_name();
    if (node.name.empty()) return fail("empty element name");

    // Attributes.
    while (true) {
      skip_ws();
      if (peek() == '/') {
        ++pos_;
        if (take() != '>') return fail("expected '>' after '/'");
        return node;
      }
      if (peek() == '>') {
        ++pos_;
        break;
      }
      const std::string key = parse_name();
      if (key.empty()) return fail("expected attribute name");
      skip_ws();
      if (take() != '=') return fail("expected '='");
      skip_ws();
      const char quote = take();
      if (quote != '"' && quote != '\'') return fail("expected quote");
      std::string raw;
      while (!at_end() && peek() != quote) raw += take();
      if (take() != quote) return fail("unterminated attribute");
      auto decoded = decode_text(raw);
      if (!decoded) return Unexpected<Error>{decoded.error()};
      node.attributes[key] = std::move(*decoded);
    }

    // Content: text and child elements until the matching close tag.
    std::string raw_text;
    while (true) {
      if (at_end()) return fail("unexpected end inside <" + node.name + ">");
      if (peek() == '<') {
        if (text_.compare(pos_, 2, "</") == 0) {
          pos_ += 2;
          const std::string closing = parse_name();
          if (closing != node.name) {
            return fail("mismatched close tag </" + closing + ">");
          }
          skip_ws();
          if (take() != '>') return fail("expected '>' in close tag");
          auto decoded = decode_text(raw_text);
          if (!decoded) return Unexpected<Error>{decoded.error()};
          node.text = std::move(*decoded);
          // Pretty-printed documents put layout whitespace between child
          // elements; that is not character data the caller wrote.
          if (!node.children.empty() &&
              node.text.find_first_not_of(" \t\r\n") == std::string::npos) {
            node.text.clear();
          }
          return node;
        }
        auto child = parse_element();
        if (!child) return child;
        node.children.push_back(std::move(*child));
      } else {
        raw_text += take();
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Serializes a node (and subtree); \param indent pretty-prints when
/// >= 0 (that many spaces per level), -1 emits compact output.
std::string xml_write(const XmlNode& root, int indent = -1) {
  std::string out;
  write_node(root, out, indent, 0);
  return out;
}

/// Parses one document (a single root element, optional `<?xml?>`
/// declaration); an error names the first syntax problem.
Expected<XmlNode> xml_parse(const std::string& text) {
  return Parser(text).parse();
}

TEST(Xml, EscapeRoundTripsEntities) {
  const std::string raw = R"(a & b < c > d "e" 'f')";
  const std::string escaped = xml_escape(raw);
  EXPECT_EQ(escaped.find('<'), std::string::npos);
  EXPECT_NE(escaped.find("&amp;"), std::string::npos);
}

TEST(Xml, WriteSimpleElement) {
  XmlNode node("job", "payload");
  node.attributes["site"] = "ufloridapg";
  EXPECT_EQ(xml_write(node), "<job site=\"ufloridapg\">payload</job>");
}

TEST(Xml, WriteSelfClosing) {
  EXPECT_EQ(xml_write(XmlNode("empty")), "<empty/>");
}

TEST(Xml, ParseSimpleDocument) {
  const auto doc = xml_parse("<a x=\"1\"><b>hi</b><b>yo</b><c/></a>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->name, "a");
  EXPECT_EQ(doc->attribute("x"), "1");
  ASSERT_EQ(doc->children.size(), 3u);
  EXPECT_EQ(doc->children_named("b").size(), 2u);
  ASSERT_NE(doc->child("b"), nullptr);
  EXPECT_EQ(doc->child("b")->text, "hi");
  EXPECT_EQ(doc->child("missing"), nullptr);
}

TEST(Xml, ParseSkipsDeclaration) {
  const auto doc = xml_parse("<?xml version=\"1.0\"?><root/>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->name, "root");
}

TEST(Xml, ParseDecodesEntities) {
  const auto doc = xml_parse("<t a=\"x&amp;y\">1 &lt; 2</t>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->attribute("a"), "x&y");
  EXPECT_EQ(doc->text, "1 < 2");
}

TEST(Xml, WriteParseRoundTrip) {
  XmlNode root("methodCall");
  root.add_child(XmlNode("methodName", "schedule<&>"));
  XmlNode& params = root.add_child(XmlNode("params"));
  params.attributes["count"] = "2";
  params.add_child(XmlNode("param", "a\"b"));
  params.add_child(XmlNode("param", "c'd"));

  const auto parsed = xml_parse(xml_write(root));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->child("methodName")->text, "schedule<&>");
  EXPECT_EQ(parsed->child("params")->attribute("count"), "2");
  EXPECT_EQ(parsed->child("params")->children[1].text, "c'd");
}

TEST(Xml, PrettyPrintedRoundTripDropsLayoutWhitespace) {
  XmlNode root("a");
  root.add_child(XmlNode("b", "x"));
  const auto parsed = xml_parse(xml_write(root, 2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->text.empty());
  EXPECT_EQ(parsed->child("b")->text, "x");
}

TEST(Xml, ParseRejectsMalformed) {
  EXPECT_FALSE(xml_parse("").has_value());
  EXPECT_FALSE(xml_parse("<a>").has_value());
  EXPECT_FALSE(xml_parse("<a></b>").has_value());
  EXPECT_FALSE(xml_parse("<a><b></a></b>").has_value());
  EXPECT_FALSE(xml_parse("<a x=1></a>").has_value());
  EXPECT_FALSE(xml_parse("<a>&bogus;</a>").has_value());
  EXPECT_FALSE(xml_parse("<a/><b/>").has_value());
  EXPECT_FALSE(xml_parse("<a>&amp</a>").has_value());
}

TEST(XrValue, TypedConstructionAndAccess) {
  EXPECT_EQ(XrValue(5).as_int(), 5);
  EXPECT_DOUBLE_EQ(XrValue(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(XrValue(4).as_double(), 4.0);  // int widens
  EXPECT_TRUE(XrValue(true).as_bool());
  EXPECT_EQ(XrValue("hi").as_string(), "hi");
  EXPECT_THROW((void)XrValue("hi").as_int(), AssertionError);
}

TEST(XrValue, StructAccess) {
  XrValue::Struct s;
  s.emplace("site", XrValue("acdc"));
  s.emplace("cpus", XrValue(72));
  const XrValue v(std::move(s));
  EXPECT_TRUE(v.has("site"));
  EXPECT_FALSE(v.has("nope"));
  EXPECT_EQ(v.at("cpus").as_int(), 72);
  EXPECT_THROW((void)v.at("nope"), AssertionError);
}

XrValue sample_value() {
  XrValue::Struct job;
  job.emplace("name", XrValue("cms-reco-042"));
  job.emplace("runtime", XrValue(61.25));
  job.emplace("retries", XrValue(3));
  job.emplace("held", XrValue(false));
  job.emplace("inputs",
              XrValue(XrValue::Array{XrValue("lfn://f1"), XrValue("lfn://f2")}));
  return XrValue(std::move(job));
}

/// write() then parse(): one value through the codec.
Expected<XrValue> round_trip(const XrValue& value) {
  std::string wire;
  value.write(wire);
  return XrValue::parse(wire);
}

TEST(XrValue, XmlRoundTripPreservesStructure) {
  const XrValue original = sample_value();
  const auto decoded = round_trip(original);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(XrValue, NestedArraysRoundTrip) {
  const XrValue v(XrValue::Array{
      XrValue(XrValue::Array{XrValue(1), XrValue(2)}),
      XrValue(XrValue::Array{}),
  });
  const auto decoded = round_trip(v);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
}

TEST(XrValue, BareTextValueIsString) {
  const auto v = XrValue::parse("<value>plain</value>");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "plain");
}

TEST(XrValue, LegacyIntTagsAccepted) {
  for (const char* tag : {"i4", "int", "i8"}) {
    const auto v =
        XrValue::parse("<value><" + std::string(tag) + ">7</" + tag + "></value>");
    ASSERT_TRUE(v.has_value()) << tag;
    EXPECT_EQ(v->as_int(), 7);
  }
}

TEST(XrValue, RejectsBadPayloads) {
  const auto bad = [](const std::string& body) {
    return !XrValue::parse(body).has_value();
  };
  EXPECT_TRUE(bad("<value><i8>zzz</i8></value>"));
  EXPECT_TRUE(bad("<value><double>zzz</double></value>"));
  EXPECT_TRUE(bad("<value><boolean>7</boolean></value>"));
  EXPECT_TRUE(bad("<value><array/></value>"));
  EXPECT_TRUE(bad("<value><mystery>1</mystery></value>"));
  EXPECT_TRUE(bad("<notvalue>x</notvalue>"));
  // A numeric scalar is the whole element text or nothing.
  EXPECT_TRUE(bad("<value><i8>12abc</i8></value>"));
  EXPECT_TRUE(bad("<value><double>1.5x</double></value>"));
}

TEST(MethodCall, SerializeParseRoundTrip) {
  MethodCall call;
  call.method = "sphinx.schedule_dag";
  call.params = {XrValue("dag-xml"), sample_value(), XrValue(42)};
  const auto parsed = MethodCall::parse(call.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, call.method);
  ASSERT_EQ(parsed->params.size(), 3u);
  EXPECT_EQ(parsed->params[1], call.params[1]);
  EXPECT_EQ(parsed->params[2].as_int(), 42);
}

TEST(MethodCall, NoParamsOk) {
  MethodCall call;
  call.method = "ping";
  const auto parsed = MethodCall::parse(call.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->params.empty());
}

TEST(MethodCall, ParseRejectsMissingMethodName) {
  EXPECT_FALSE(MethodCall::parse("<methodCall><params/></methodCall>").has_value());
  EXPECT_FALSE(MethodCall::parse("<other/>").has_value());
}

TEST(MethodResponse, SuccessRoundTrip) {
  const auto r = MethodResponse::success(sample_value());
  const auto parsed = MethodResponse::parse(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_fault);
  EXPECT_EQ(parsed->value, r.value);
}

TEST(MethodResponse, FaultRoundTrip) {
  const auto r = MethodResponse::failure(3, "authorization denied");
  const auto parsed = MethodResponse::parse(r.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_fault);
  EXPECT_EQ(parsed->fault.code, 3);
  EXPECT_EQ(parsed->fault.message, "authorization denied");
}

TEST(MethodResponse, ParseRejectsEmptyResponse) {
  EXPECT_FALSE(MethodResponse::parse("<methodResponse/>").has_value());
}

std::string fault_reply(const std::string& code, const std::string& message) {
  return "<methodResponse><fault><value><struct>"
         "<member><name>faultCode</name><value>" + code + "</value></member>"
         "<member><name>faultString</name><value>" + message +
         "</value></member></struct></value></fault></methodResponse>";
}

TEST(MethodResponse, ParseRejectsMistypedFaultStruct) {
  // A fault whose members have the wrong types is a malformed reply, not
  // a programming error: it must come back as a parse error the caller
  // can handle, never as an exception out of the bus handler.
  for (const std::string& reply :
       {fault_reply("<string>3</string>", "<string>denied</string>"),
        fault_reply("<double>3</double>", "<string>denied</string>"),
        fault_reply("<i8>3</i8>", "<i8>4</i8>"),
        fault_reply("<i8>3</i8>",
                    "<array><data><value>x</value></data></array>")}) {
    const auto parsed = MethodResponse::parse(reply);
    ASSERT_FALSE(parsed.has_value()) << reply;
    EXPECT_EQ(parsed.error().code, "xmlrpc_parse");
  }
  const std::string not_a_struct =
      "<methodResponse><fault><value><i8>3</i8></value></fault>"
      "</methodResponse>";
  EXPECT_FALSE(MethodResponse::parse(not_a_struct).has_value());
  const auto ok = MethodResponse::parse(
      fault_reply("<i8>3</i8>", "<string>denied</string>"));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->fault.code, 3);
}

// ------------------------------------------------------------------------
// Differential test: the single-pass codec against the DOM codec.

/// The DOM codec the wire path used before the single-pass one: an
/// XmlNode tree per message, written with xml_write and read back with
/// xml_parse.  Kept as written then, with one change: a fault struct
/// with mistyped members is a parse error here too (it used to throw
/// AssertionError out of as_int()/as_string()).
namespace dom {

XmlNode to_xml(const XrValue& v) {
  XmlNode value("value");
  if (v.is_int()) {
    value.add_child(XmlNode("i8", std::to_string(v.as_int())));
  } else if (v.is_double()) {
    std::ostringstream oss;
    oss.precision(17);
    oss << v.as_double();
    value.add_child(XmlNode("double", oss.str()));
  } else if (v.is_bool()) {
    value.add_child(XmlNode("boolean", v.as_bool() ? "1" : "0"));
  } else if (v.is_string()) {
    value.add_child(XmlNode("string", v.as_string()));
  } else if (v.is_array()) {
    XmlNode data("data");
    for (const XrValue& item : v.as_array()) data.add_child(to_xml(item));
    XmlNode array("array");
    array.add_child(std::move(data));
    value.add_child(std::move(array));
  } else {
    XmlNode strct("struct");
    for (const auto& [k, m] : v.as_struct()) {
      XmlNode member("member");
      member.add_child(XmlNode("name", k));
      member.add_child(to_xml(m));
      strct.add_child(std::move(member));
    }
    value.add_child(std::move(strct));
  }
  return value;
}

Expected<XrValue> from_xml(const XmlNode& value_node) {
  if (value_node.name != "value") {
    return make_error("xmlrpc_parse", "expected <value>, got <" +
                                          value_node.name + ">");
  }
  if (value_node.children.empty()) {
    return XrValue(value_node.text);
  }
  const XmlNode& t = value_node.children.front();
  if (t.name == "i4" || t.name == "int" || t.name == "i8") {
    try {
      return XrValue(static_cast<std::int64_t>(std::stoll(t.text)));
    } catch (const std::exception&) {
      return make_error("xmlrpc_parse", "bad int: " + t.text);
    }
  }
  if (t.name == "double") {
    try {
      return XrValue(std::stod(t.text));
    } catch (const std::exception&) {
      return make_error("xmlrpc_parse", "bad double: " + t.text);
    }
  }
  if (t.name == "boolean") {
    if (t.text != "0" && t.text != "1") {
      return make_error("xmlrpc_parse", "bad boolean: " + t.text);
    }
    return XrValue(t.text == "1");
  }
  if (t.name == "string") {
    return XrValue(t.text);
  }
  if (t.name == "array") {
    const XmlNode* data = t.child("data");
    if (data == nullptr) return make_error("xmlrpc_parse", "array without <data>");
    XrValue::Array items;
    for (const XmlNode& c : data->children) {
      auto item = from_xml(c);
      if (!item) return item;
      items.push_back(std::move(*item));
    }
    return XrValue(std::move(items));
  }
  if (t.name == "struct") {
    XrValue::Struct members;
    for (const XmlNode& member : t.children) {
      if (member.name != "member") {
        return make_error("xmlrpc_parse", "struct child is not <member>");
      }
      const XmlNode* name = member.child("name");
      const XmlNode* value = member.child("value");
      if (name == nullptr || value == nullptr) {
        return make_error("xmlrpc_parse", "incomplete <member>");
      }
      auto v = from_xml(*value);
      if (!v) return v;
      members.emplace(name->text, std::move(*v));
    }
    return XrValue(std::move(members));
  }
  return make_error("xmlrpc_parse", "unknown value type <" + t.name + ">");
}

Expected<XrValue> parse_value(const std::string& xml) {
  auto doc = xml_parse(xml);
  if (!doc) return Unexpected<Error>{doc.error()};
  return from_xml(*doc);
}

std::string serialize(const MethodCall& call) {
  XmlNode root("methodCall");
  root.add_child(XmlNode("methodName", call.method));
  XmlNode& params_node = root.add_child(XmlNode("params"));
  for (const XrValue& p : call.params) {
    XmlNode param("param");
    param.add_child(to_xml(p));
    params_node.add_child(std::move(param));
  }
  return "<?xml version=\"1.0\"?>" + xml_write(root);
}

Expected<MethodCall> parse_call(const std::string& xml) {
  auto doc = xml_parse(xml);
  if (!doc) return Unexpected<Error>{doc.error()};
  if (doc->name != "methodCall") {
    return make_error("xmlrpc_parse", "not a <methodCall>");
  }
  const XmlNode* name = doc->child("methodName");
  if (name == nullptr || name->text.empty()) {
    return make_error("xmlrpc_parse", "missing <methodName>");
  }
  MethodCall call;
  call.method = name->text;
  if (const XmlNode* params = doc->child("params"); params != nullptr) {
    for (const XmlNode& param : params->children) {
      const XmlNode* value = param.child("value");
      if (value == nullptr) {
        return make_error("xmlrpc_parse", "<param> without <value>");
      }
      auto v = from_xml(*value);
      if (!v) return Unexpected<Error>{v.error()};
      call.params.push_back(std::move(*v));
    }
  }
  return call;
}

std::string serialize(const MethodResponse& response) {
  XmlNode root("methodResponse");
  if (response.is_fault) {
    XrValue::Struct f;
    f.emplace("faultCode", XrValue(response.fault.code));
    f.emplace("faultString", XrValue(response.fault.message));
    XmlNode& fault_node = root.add_child(XmlNode("fault"));
    fault_node.add_child(to_xml(XrValue(std::move(f))));
  } else {
    XmlNode& params = root.add_child(XmlNode("params"));
    XmlNode param("param");
    param.add_child(to_xml(response.value));
    params.add_child(std::move(param));
  }
  return "<?xml version=\"1.0\"?>" + xml_write(root);
}

Expected<MethodResponse> parse_response(const std::string& xml) {
  auto doc = xml_parse(xml);
  if (!doc) return Unexpected<Error>{doc.error()};
  if (doc->name != "methodResponse") {
    return make_error("xmlrpc_parse", "not a <methodResponse>");
  }
  if (const XmlNode* fault = doc->child("fault"); fault != nullptr) {
    const XmlNode* value = fault->child("value");
    if (value == nullptr) return make_error("xmlrpc_parse", "fault without value");
    auto v = from_xml(*value);
    if (!v) return Unexpected<Error>{v.error()};
    if (!v->has("faultCode") || !v->has("faultString")) {
      return make_error("xmlrpc_parse", "fault struct incomplete");
    }
    if (!v->at("faultCode").is_int() || !v->at("faultString").is_string()) {
      return make_error("xmlrpc_parse", "fault struct mistyped");
    }
    return MethodResponse::failure(v->at("faultCode").as_int(),
                                   v->at("faultString").as_string());
  }
  const XmlNode* params = doc->child("params");
  if (params == nullptr || params->children.empty()) {
    return make_error("xmlrpc_parse", "response without params or fault");
  }
  const XmlNode* value = params->children.front().child("value");
  if (value == nullptr) return make_error("xmlrpc_parse", "param without value");
  auto v = from_xml(*value);
  if (!v) return Unexpected<Error>{v.error()};
  return MethodResponse::success(std::move(*v));
}

}  // namespace dom

/// Structural equality with doubles compared by bit pattern, so NaN,
/// -0.0 and subnormals count.
bool same(const XrValue& a, const XrValue& b) {
  if (a.is_double() || b.is_double()) {
    return a.is_double() && b.is_double() &&
           std::bit_cast<std::uint64_t>(a.as_double()) ==
               std::bit_cast<std::uint64_t>(b.as_double());
  }
  if (a.is_array()) {
    if (!b.is_array() || a.as_array().size() != b.as_array().size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.as_array().size(); ++i) {
      if (!same(a.as_array()[i], b.as_array()[i])) return false;
    }
    return true;
  }
  if (a.is_struct()) {
    if (!b.is_struct() || a.as_struct().size() != b.as_struct().size()) {
      return false;
    }
    auto it = b.as_struct().begin();
    for (const auto& [k, v] : a.as_struct()) {
      if (it->first != k || !same(v, it->second)) return false;
      ++it;
    }
    return true;
  }
  return a == b;
}

bool same(const MethodCall& a, const MethodCall& b) {
  if (a.method != b.method || a.params.size() != b.params.size()) return false;
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (!same(a.params[i], b.params[i])) return false;
  }
  return true;
}

bool same(const MethodResponse& a, const MethodResponse& b) {
  return a.is_fault == b.is_fault && a.fault.code == b.fault.code &&
         a.fault.message == b.fault.message && same(a.value, b.value);
}

bool has_subnormal(const XrValue& v) {
  if (v.is_double()) {
    return std::fpclassify(v.as_double()) == FP_SUBNORMAL;
  }
  if (v.is_array()) {
    for (const XrValue& item : v.as_array()) {
      if (has_subnormal(item)) return true;
    }
  }
  if (v.is_struct()) {
    for (const auto& [k, m] : v.as_struct()) {
      if (has_subnormal(m)) return true;
    }
  }
  return false;
}

bool has_subnormal(const MethodCall& call) {
  for (const XrValue& p : call.params) {
    if (has_subnormal(p)) return true;
  }
  return false;
}

/// Inputs only the DOM codec accepts.  It read numerics with std::stoll
/// and std::stod, which skip leading whitespace, stop at the first
/// character that does not fit (`12abc` read as 12) and take hex floats;
/// the single-pass codec takes the whole element text as the number or
/// rejects it.  True when `error` is the single-pass codec rejecting a
/// numeric text that std::stoll / std::stod would have read.
bool lax_numeric(const Error& error) {
  const auto accepted_by = [&](std::string_view prefix, auto&& read) {
    if (!error.message.starts_with(prefix)) return false;
    std::size_t used = 0;
    try {
      read(error.message.substr(prefix.size()), &used);
    } catch (const std::exception&) {
      return false;
    }
    return used > 0;
  };
  return accepted_by("bad int: ",
                     [](const std::string& t, std::size_t* used) {
                       std::stoll(t, used);
                     }) ||
         accepted_by("bad double: ",
                     [](const std::string& t, std::size_t* used) {
                       std::stod(t, used);
                     });
}

/// Inputs only the single-pass codec accepts.  std::stod reports ERANGE
/// for subnormal results, so the DOM codec rejected the subnormal doubles
/// it had itself written; std::from_chars reads them back exactly.
bool oracle_rejects_subnormal(const Error& oracle_error) {
  constexpr std::string_view kPrefix = "bad double: ";
  return oracle_error.message.starts_with(kPrefix) &&
         std::fpclassify(std::strtod(
             oracle_error.message.c_str() + kPrefix.size(), nullptr)) ==
             FP_SUBNORMAL;
}

enum class Verdict { kBothReject, kSame, kDiffer, kOnlyDom, kOnlySinglePass };

struct Tally {
  int both_reject = 0;
  int same = 0;
  int lax_numeric = 0;
  int subnormal = 0;

  /// Shows the counts in the test's XML report (--gtest_output=xml).
  void record(const std::string& prefix) const {
    ::testing::Test::RecordProperty(prefix + "_both_reject", both_reject);
    ::testing::Test::RecordProperty(prefix + "_same", same);
    ::testing::Test::RecordProperty(prefix + "_lax_numeric", lax_numeric);
    ::testing::Test::RecordProperty(prefix + "_subnormal", subnormal);
  }
};

/// Runs one input through both parsers and checks the outcome is one the
/// single-pass codec is allowed: agreement, or a declared difference.
template <typename T, typename Dom, typename Single>
void compare(const std::string& input, Dom&& dom_parse, Single&& parse,
             Tally& tally) {
  const Expected<T> expected = dom_parse(input);
  const Expected<T> actual = parse(input);
  if (!expected && !actual) {
    ++tally.both_reject;
  } else if (expected && actual) {
    EXPECT_TRUE(same(*expected, *actual)) << "values differ on: " << input;
    ++tally.same;
  } else if (expected) {
    EXPECT_TRUE(lax_numeric(actual.error()))
        << "only the DOM codec accepts: " << input << "\n  single-pass: "
        << actual.error().to_string();
    ++tally.lax_numeric;
  } else {
    EXPECT_TRUE(oracle_rejects_subnormal(expected.error()))
        << "only the single-pass codec accepts: " << input
        << "\n  DOM: " << expected.error().to_string();
    ++tally.subnormal;
  }
}

void compare_call(const std::string& input, Tally& tally) {
  compare<MethodCall>(input, dom::parse_call, MethodCall::parse, tally);
}
void compare_response(const std::string& input, Tally& tally) {
  compare<MethodResponse>(input, dom::parse_response, MethodResponse::parse,
                          tally);
}
void compare_value(const std::string& input, Tally& tally) {
  compare<XrValue>(input, dom::parse_value, XrValue::parse, tally);
}

/// Seeded random XML-RPC trees covering the corners of the value space.
class TreeGen {
 public:
  explicit TreeGen(std::uint64_t seed) : rng_(seed) {}

  std::string text() {
    if (rng_.chance(0.15)) return {};
    if (rng_.chance(0.05)) return " \n\t ";
    static constexpr std::string_view kPool =
        "&<>\"'&;abcxyz019 .-\n\t";
    std::string s;
    const auto n = rng_.uniform_int(1, 12);
    for (std::int64_t i = 0; i < n; ++i) {
      const double roll = rng_.uniform();
      if (roll < 0.15) {
        s += static_cast<char>(rng_.uniform_int(0x80, 0xff));  // high bit
      } else if (roll < 0.17) {
        s += '\0';
      } else {
        s += kPool[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(kPool.size()) - 1))];
      }
    }
    return s;
  }

  std::int64_t integer() {
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    switch (rng_.uniform_int(0, 5)) {
      case 0: return kMin;
      case 1: return kMax;
      case 2: return 0;
      case 3: return rng_.uniform_int(-1000, 1000);
      default: return rng_.uniform_int(kMin, kMax);
    }
  }

  double number() {
    using limits = std::numeric_limits<double>;
    switch (rng_.uniform_int(0, 13)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return rng_.chance(0.5) ? limits::denorm_min() : -limits::denorm_min();
      case 3:  // a random subnormal
        return std::bit_cast<double>(static_cast<std::uint64_t>(
            rng_.uniform_int(1, (std::int64_t{1} << 52) - 1)));
      case 4: return rng_.chance(0.5) ? limits::max() : limits::lowest();
      case 5: return std::ldexp(rng_.uniform(0.5, 1.0), 1000);  // huge
      case 6: return std::ldexp(rng_.uniform(0.5, 1.0), -1000);  // tiny
      case 7: return rng_.chance(0.5) ? limits::infinity() : -limits::infinity();
      case 8: return rng_.chance(0.5) ? limits::quiet_NaN() : -limits::quiet_NaN();
      case 9: return limits::min();
      case 10: return static_cast<double>(rng_.uniform_int(-100, 100)) / 4.0;
      default: return rng_.uniform(-1e9, 1e9);
    }
  }

  XrValue value(int depth) {
    const std::int64_t kinds = depth >= 4 ? 3 : 5;
    switch (rng_.uniform_int(0, kinds)) {
      case 0: return XrValue(integer());
      case 1: return XrValue(number());
      case 2: return XrValue(rng_.chance(0.5));
      case 3: return XrValue(text());
      case 4: {
        XrValue::Array items;
        const auto n = rng_.uniform_int(0, 4);
        for (std::int64_t i = 0; i < n; ++i) items.push_back(value(depth + 1));
        return XrValue(std::move(items));
      }
      default: {
        XrValue::Struct members;
        const auto n = rng_.uniform_int(0, 4);
        for (std::int64_t i = 0; i < n; ++i) {
          members.emplace(text(), value(depth + 1));
        }
        return XrValue(std::move(members));
      }
    }
  }

  MethodCall call() {
    MethodCall c;
    c.method = "m" + text();
    const auto n = rng_.uniform_int(0, 4);
    for (std::int64_t i = 0; i < n; ++i) c.params.push_back(value(0));
    return c;
  }

  MethodResponse response() {
    if (rng_.chance(0.3)) return MethodResponse::failure(integer(), text());
    return MethodResponse::success(value(0));
  }

 private:
  Rng rng_;
};

/// The document re-written by the DOM writer with two-space indentation:
/// same message, with layout whitespace between every pair of elements.
std::string pretty(const std::string& wire) {
  const auto doc = xml_parse(wire);
  EXPECT_TRUE(doc.has_value());
  return doc ? "<?xml version=\"1.0\"?>\n" + xml_write(*doc, 2) : wire;
}

/// A report, a plan and a DAG as the client and server send them, a
/// reply and a fault.
std::vector<std::string> wire_payloads() {
  core::TrackerReport report;
  report.job = JobId(42);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(3);
  report.at = 1234.5;
  report.completion_time = 321.5;
  report.execution_time = 300.25;
  report.idle_time = 21.25;
  report.attempt = 2;

  core::ExecutionPlan plan;
  plan.job = JobId(55);
  plan.dag = DagId(7);
  plan.job_name = "reco<&>";
  plan.site = SiteId(3);
  plan.inputs = {{"lfn://a", SiteId(1), 12e6}, {"lfn://b", SiteId(9), 7e6}};
  plan.output = "lfn://out";
  plan.output_bytes = 5e6;
  plan.attempt = 2;
  plan.persist_output = true;
  plan.persistent_site = SiteId(4);
  plan.batch_priority = -0.125;

  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadConfig config;
  config.jobs_per_dag = 3;
  workflow::WorkloadGenerator generator(config, Rng(11), ids, rls,
                                        {SiteId(1), SiteId(2)});
  const workflow::Dag dag = generator.generate("wire");

  return {
      MethodCall{"sphinx.report", {core::encode_report(report)}}.serialize(),
      MethodCall{"execute_plan", {core::encode_plan(plan)}}.serialize(),
      MethodCall{"sphinx.submit_dag",
                 {XrValue("client"), XrValue(1), core::encode_dag(dag)}}
          .serialize(),
      MethodResponse::success(core::encode_report(report)).serialize(),
      MethodResponse::failure(7, "a<b & 'c'").serialize(),
  };
}

TEST(XmlRpcDifferential, SinglePassCodecMatchesDomCodec) {
  Tally trees;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    TreeGen gen(seed);
    const MethodCall call = gen.call();
    const MethodResponse response = gen.response();
    const std::string call_wire = call.serialize();
    const std::string response_wire = response.serialize();
    // Byte-identical output, read back to an equal message.
    ASSERT_EQ(call_wire, dom::serialize(call)) << "seed " << seed;
    ASSERT_EQ(response_wire, dom::serialize(response)) << "seed " << seed;
    const auto call_back = MethodCall::parse(call_wire);
    const auto response_back = MethodResponse::parse(response_wire);
    ASSERT_TRUE(call_back.has_value()) << call_back.error().to_string();
    ASSERT_TRUE(response_back.has_value())
        << response_back.error().to_string();
    EXPECT_TRUE(same(*call_back, call)) << "seed " << seed;
    EXPECT_TRUE(same(*response_back, response)) << "seed " << seed;
    for (const XrValue& p : call.params) {
      std::string value_wire;
      p.write(value_wire);
      ASSERT_EQ(value_wire, xml_write(dom::to_xml(p))) << "seed " << seed;
      compare_value(value_wire, trees);
    }
    // The DOM codec reads the same, pretty-printed or not; it fails only
    // on subnormals.
    const int subnormal_before = trees.subnormal;
    compare_call(call_wire, trees);
    compare_response(response_wire, trees);
    compare_call(pretty(call_wire), trees);
    compare_response(pretty(response_wire), trees);
    if (!has_subnormal(call) && !has_subnormal(response.value)) {
      EXPECT_EQ(trees.subnormal, subnormal_before) << "seed " << seed;
    }
  }
  trees.record("trees");
  EXPECT_GT(trees.same, 1000);
  EXPECT_GT(trees.subnormal, 0);  // the generator does reach subnormals
  EXPECT_EQ(trees.both_reject, 0);
  EXPECT_EQ(trees.lax_numeric, 0);

  // Malformed corpus: every truncation and seeded byte flips of real
  // payloads.  Whatever the DOM codec rejects must be rejected.
  Tally corpus;
  Rng rng(2024);
  constexpr std::string_view kFlips = "<>/&;\"'= \n0123456789.-+eExa";
  const std::vector<std::string> payloads = wire_payloads();
  ASSERT_EQ(payloads.size(), 5u);
  const std::string& fault = payloads[4];
  for (const std::string& payload : payloads) {
    const bool is_call = payload.find("<methodCall>") != std::string::npos;
    const auto check = [&](const std::string& input) {
      if (is_call) {
        compare_call(input, corpus);
      } else {
        compare_response(input, corpus);
      }
    };
    check(payload);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      check(payload.substr(0, len));
    }
    for (int flip = 0; flip < 1500; ++flip) {
      std::string mutated = payload;
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(payload.size()) - 1));
      mutated[at] =
          rng.chance(0.8)
              ? kFlips[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(kFlips.size()) - 1))]
              : static_cast<char>(rng.uniform_int(0, 255));
      check(mutated);
    }
  }
  corpus.record("corpus");
  EXPECT_GT(corpus.both_reject, 5000);
  EXPECT_GT(corpus.same, 100);
  EXPECT_EQ(corpus.subnormal, 0);

  // Hand-written cases: the earlier malformed inputs, XML the writer never
  // produces but the DOM codec reads (attributes, layout, element order,
  // extra children, entities split by a child), and numeric edge cases.
  Tally hand;
  const std::vector<std::string> call_inputs = {
           "", "<a>", "<a></b>", "<a><b></a></b>", "<a x=1></a>",
           "<a>&bogus;</a>", "<a/><b/>", "<a>&amp</a>", "<other/>",
           "<methodCall><params/></methodCall>", "<methodCall/>",
           "<methodCall><methodName/></methodCall>",
           "<methodCall><methodName> </methodName></methodCall>",
           "<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>ping</methodName>\n</methodCall>\n",
           "<?xml version=\"1.0\"?",
           "<?xml?><methodCall><methodName>x</methodName></methodCall> junk",
           "<!-- c --><methodCall><methodName>x</methodName></methodCall>",
           "<methodCall a=\"1\" b='x&amp;y'><methodName c=\"2\">m</methodName>"
           "<params><param><value><i4>5</i4></value></param></params></methodCall>",
           "<methodCall a=\"&bogus;\"><methodName>m</methodName></methodCall>",
           "<methodCall><methodName>m<x/>n</methodName></methodCall>",
           "<methodCall><params><p><value>1</value></p></params>"
           "<methodName>m</methodName><methodName>z</methodName></methodCall>",
           "<methodCall><methodName>m</methodName><params><param/></params></methodCall>",
           "<methodCall><methodName>m</methodName><params><param><junk/><value>"
           "<i8>1</i8></value><value><mystery/></value></param></params></methodCall>",
           "<methodCall ><methodName >m</methodName ></methodCall >",
           "< methodCall><methodName>m</methodName></methodCall>",
           "<methodCall><methodName>m</methodName></methodCall/>",
  };
  for (const std::string& input : call_inputs) {
    compare_call(input, hand);
  }
  const std::vector<std::string> response_inputs = {
           "<methodResponse/>",
           "<methodResponse><params/></methodResponse>",
           "<methodResponse><params></params></methodResponse>",
           "<methodResponse><params><param/></params></methodResponse>",
           "<methodResponse><params><param><value>a</value></param>"
           "<param><value>b</value></param></params></methodResponse>",
           "<methodResponse><params><x><value><i8>1</i8></value></x></params>"
           "</methodResponse>",
           // The first fault wins over params, valid or not, wherever it is.
           "<methodResponse><params><param><value><i8>1</i8></value></param>"
           "</params>" + fault.substr(fault.find("<fault>")),
           "<methodResponse><params><param><value><bogus/></value></param>"
           "</params>" + fault.substr(fault.find("<fault>")),
           "<methodResponse><params/>" + fault.substr(fault.find("<fault>")),
           fault.substr(0, fault.find("</methodResponse>")) +
               "<params><param><value><bogus/></value></param></params>"
               "</methodResponse>",
           "<methodResponse><params><param><value><bogus></value></param>"
           "</params>" + fault.substr(fault.find("<fault>")),
           "<methodResponse><fault/></methodResponse>",
           "<methodResponse><fault><value><i8>1</i8></value></fault></methodResponse>",
           "<methodResponse><fault><value><struct/></value></fault></methodResponse>",
           fault_reply("<string>3</string>", "<string>x</string>"),
           fault_reply("<i8>3</i8>", "x"),
  };
  for (const std::string& input : response_inputs) {
    compare_response(input, hand);
  }
  const std::vector<std::string> value_inputs = {
           "<value/>", "<value></value>", "<value> </value>",
           "<value>a&lt;b</value>", std::string("<value>a\0b</value>", 18),
           "<value>junk<i8>5</i8>more</value>",
           "<value>&am<i8>5</i8>p;</value>", "<value>&am<i8>5</i8></value>",
           "<value><i8>1</i8><string>x</string></value>",
           "<value><i8>1</i8><bogus/></value>",
           "<value><i8>1</i8><string>&bad;</string></value>",
           "<value><i8>5<x/></i8></value>", "<value><i8/></value>",
           "<value><string>a<b/>c</string></value>",
           "<value><string> <b/> </string></value>",
           "<value><string/></value>", "<value><boolean> 1</boolean></value>",
           "<value><boolean>1</boolean></value>",
           "<value><array><foo/><data><value>1</value></data><data/></array></value>",
           "<value><array><data><value>1</value><x/></data></array></value>",
           "<value><array><data/></array></value>",
           "<value><struct><member><value><i8>1</i8></value><name>k</name>"
           "</member></struct></value>",
           "<value><struct><member><name>k</name><value><i8>1</i8></value>"
           "</member><member><name>k</name><value><i8>2</i8></value></member>"
           "</struct></value>",
           "<value><struct><member><name>k</name></member></struct></value>",
           "<value><struct><member/></struct></value>",
           "<value><struct><x/></struct></value>",
           "<value><struct><member><name>k<i/></name><value/></member></struct></value>",
           "<value><i8>+5</i8></value>", "<value><i8>+-5</i8></value>",
           "<value><i8>-0</i8></value>", "<value><i8>007</i8></value>",
           "<value><i8>9223372036854775807</i8></value>",
           "<value><i8>-9223372036854775808</i8></value>",
           "<value><i8>9223372036854775808</i8></value>",
           "<value><double>+inf</double></value>",
           "<value><double>-nan</double></value>",
           "<value><double>NaN</double></value>",
           "<value><double>infinity</double></value>",
           "<value><double>.5</double></value>", "<value><double>5.</double></value>",
           "<value><double>1e308</double></value>",
           "<value><double>1e999</double></value>",
           "<value><double>1e-999</double></value>",
           "<value><double>2.2250738585072014e-308</double></value>",
           "<value><double></double></value>",
  };
  for (const std::string& input : value_inputs) {
    compare_value(input, hand);
  }
  hand.record("hand");
  EXPECT_EQ(hand.lax_numeric, 0);
  EXPECT_EQ(hand.subnormal, 0);

  // The declared differences.  Lax numerics: only the DOM codec reads
  // these.  Subnormals: only the single-pass codec reads them back.
  Tally lax;
  for (const char* input : {
           "<value><i8>12abc</i8></value>", "<value><double>1.5x</double></value>",
           "<value><i8> 12</i8></value>", "<value><i8>7 </i8></value>",
           "<value><i8>0x10</i8></value>", "<value><double>0x1p3</double></value>",
           "<value><double>1e</double></value>",
           "<value><double> 2.5</double></value>",
       }) {
    compare_value(input, lax);
  }
  EXPECT_EQ(lax.lax_numeric, 8);
  Tally subnormal;
  compare_value("<value><double>4.9406564584124654e-324</double></value>",
                subnormal);
  compare_value("<value><double>-2.2250738585072009e-308</double></value>",
                subnormal);
  EXPECT_EQ(subnormal.subnormal, 2);
}

}  // namespace
}  // namespace sphinx::rpc
