#include "graph/io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace radiocast::graph {

namespace {

/// A whole token as a node id; junk, signs and values past 32 bits are
/// rejected instead of thrown past the caller or truncated.
NodeId parse_id(const std::string& token) {
  const char* end = token.data() + token.size();
  NodeId id = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, id);
  RC_EXPECTS_MSG(ec == std::errc{} && ptr == end,
                 "malformed node id '" + token + "' in edge line");
  return id;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId max_id = 0;
  std::uint32_t declared_nodes = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) continue;
    if (first == "nodes") {
      ls >> declared_nodes;
      continue;
    }
    std::string second;
    RC_EXPECTS_MSG(static_cast<bool>(ls >> second), "malformed edge line");
    const NodeId u = parse_id(first);
    const NodeId v = parse_id(second);
    edges.emplace_back(u, v);
    max_id = std::max(max_id, std::max(u, v));
  }
  const std::uint32_t n =
      std::max(declared_nodes, edges.empty() ? declared_nodes : max_id + 1);
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "nodes " << g.node_count() << '\n';
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const NodeId w : g.neighbors(v)) {
      if (v < w) out << v << ' ' << w << '\n';
    }
  }
}

std::string to_dot(const Graph& g, const std::vector<std::string>& node_text,
                   NodeId highlight) {
  RC_EXPECTS(node_text.empty() || node_text.size() == g.node_count());
  std::ostringstream os;
  os << "graph radio {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  n" << v << " [label=\"" << v;
    if (!node_text.empty()) os << "\\n" << node_text[v];
    os << "\"";
    if (v == highlight) os << ", shape=doublecircle";
    os << "];\n";
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const NodeId w : g.neighbors(v)) {
      if (v < w) os << "  n" << v << " -- n" << w << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace radiocast::graph
