// Paths through the AS graph and the transit-cost convention of Sect. 3:
// the cost of a path is the sum of the costs of its *intermediate* nodes
// only — source and destination carry their own traffic for free
// (I_i(c;i,j) = I_j(c;i,j) = 0).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::graph {

/// A path is the full node sequence source..destination, inclusive.
using Path = std::vector<NodeId>;

/// Sum of transit-node costs (nodes strictly between the endpoints).
/// Precondition: path has >= 1 node.
Cost transit_cost(const Graph& g, const Path& path);

/// True if consecutive nodes are adjacent in g (single node counts).
bool is_walk(const Graph& g, const Path& path);

/// True if no node repeats.
bool is_simple(const Path& path);

/// True if `path` is a simple walk from `src` to `dst`.
bool is_simple_path(const Graph& g, const Path& path, NodeId src, NodeId dst);

/// True if node k appears strictly between the endpoints.
bool is_transit_node(std::span<const NodeId> path, NodeId k);

/// "0-3-1-2" rendering.
std::string path_to_string(const Path& path);

/// Same, with nodes shown as letters A.. (for the Fig. 1 worked example).
std::string path_to_letters(const Path& path,
                            const std::vector<std::string>& names);

}  // namespace fpss::graph
