#pragma once
/// \file xml.hpp
/// Minimal XML document model, writer and parser.
///
/// The XML subset SPHINX's files and messages use: elements, attributes,
/// character data and the five predefined entities.  It is not a general
/// XML processor.  DAX workflow files (workflow/dax) are read and written
/// through this tree; XML-RPC envelopes are not -- rpc/xmlrpc.hpp has its
/// own single-pass codec over the same subset.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace sphinx::rpc {

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
  [[nodiscard]] const XmlNode* child(const std::string& name) const noexcept;

  /// All children with the given element name.
  [[nodiscard]] std::vector<const XmlNode*> children_named(
      const std::string& name) const;

  /// Attribute value or empty string.
  [[nodiscard]] std::string attribute(const std::string& key) const;
};

/// Escapes the five predefined entities in character data.
[[nodiscard]] std::string xml_escape(const std::string& raw);

/// Serializes a node (and subtree) to text.  \param indent pretty-print
/// when >= 0 (that many spaces per level); -1 emits compact output.
[[nodiscard]] std::string xml_write(const XmlNode& root, int indent = -1);

/// Parses one XML document (a single root element, optional `<?xml?>`
/// declaration).  Returns an error describing the first syntax problem.
[[nodiscard]] Expected<XmlNode> xml_parse(const std::string& text);

}  // namespace sphinx::rpc
