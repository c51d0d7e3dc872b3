// A dense set of node ids for per-AS protocol bookkeeping (destinations to
// reselect, to re-advertise, to re-derive prices for). The agents hit these
// sets once per received entry, so they are a flag per node plus a member
// list instead of a tree: insert and contains are O(1) and allocation-free
// once the list has grown to its working size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/contract.h"
#include "util/types.h"

namespace fpss::bgp {

/// A set over the node ids below the capacity given at construction.
/// Iteration goes through sorted(), which yields the members ascending:
/// protocol output (the entry order of an advertisement) follows that
/// order, so it is part of the engine's determinism contract.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::size_t capacity) : flags_(capacity, 0) {}

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  bool contains(NodeId v) const {
    FPSS_EXPECTS(v < flags_.size());
    return flags_[v] != 0;
  }

  void insert(NodeId v) {
    FPSS_EXPECTS(v < flags_.size());
    if (flags_[v] != 0) return;
    flags_[v] = 1;
    ascending_ = ascending_ && (members_.empty() || members_.back() < v);
    members_.push_back(v);
  }

  /// Inserts every node id below the capacity, in O(capacity).
  void insert_all() {
    std::fill(flags_.begin(), flags_.end(), std::uint8_t{1});
    members_.resize(flags_.size());
    std::iota(members_.begin(), members_.end(), NodeId{0});
    ascending_ = true;
  }

  /// Removes every member in O(size()), keeping the storage.
  void clear() {
    for (NodeId v : members_) flags_[v] = 0;
    members_.clear();
    ascending_ = true;
  }

  /// The members, ascending. The reference stays valid until the next
  /// insert, insert_all or clear.
  const std::vector<NodeId>& sorted() {
    if (!ascending_) {
      std::sort(members_.begin(), members_.end());
      ascending_ = true;
    }
    return members_;
  }

 private:
  std::vector<std::uint8_t> flags_;  ///< by node id: 1 iff a member
  std::vector<NodeId> members_;      ///< insertion order until sorted()
  bool ascending_ = true;            ///< members_ is already ascending
};

}  // namespace fpss::bgp
