#include "graph/path.h"

#include <unordered_set>

#include "util/contract.h"

namespace fpss::graph {

Cost transit_cost(const Graph& g, const Path& path) {
  FPSS_EXPECTS(!path.empty());
  Cost total = Cost::zero();
  for (std::size_t i = 1; i + 1 < path.size(); ++i) total += g.cost(path[i]);
  return total;
}

bool is_walk(const Graph& g, const Path& path) {
  if (path.empty()) return false;
  for (NodeId v : path)
    if (!g.contains(v)) return false;
  for (std::size_t i = 1; i < path.size(); ++i)
    if (!g.has_edge(path[i - 1], path[i])) return false;
  return true;
}

bool is_simple(const Path& path) {
  std::unordered_set<NodeId> seen(path.begin(), path.end());
  return seen.size() == path.size();
}

bool is_simple_path(const Graph& g, const Path& path, NodeId src, NodeId dst) {
  return !path.empty() && path.front() == src && path.back() == dst &&
         is_walk(g, path) && is_simple(path);
}

bool is_transit_node(std::span<const NodeId> path, NodeId k) {
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    if (path[i] == k) return true;
  return false;
}

std::string path_to_string(const Path& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += '-';
    out += std::to_string(path[i]);
  }
  return out;
}

std::string path_to_letters(const Path& path,
                            const std::vector<std::string>& names) {
  std::string out;
  for (NodeId v : path) {
    FPSS_EXPECTS(v < names.size());
    out += names[v];
  }
  return out;
}

}  // namespace fpss::graph
