#include "pricing/value_row.h"

#include <algorithm>

namespace fpss::pricing {

bool ValueRow::rekey(const bgp::SelectedRoute& route, bool preserve) {
  const std::size_t old_size = entries_.size();
  const std::size_t size =
      route.valid() && route.path.size() > 2 ? route.path.size() - 2 : 0;
  if (!preserve) {
    // Every entry restarts at +infinity: overwrite in place.
    bool changed = size != old_size;
    entries_.resize(size);
    for (std::size_t t = 0; t < size; ++t) {
      const std::pair<NodeId, Cost> fresh{route.path[t + 1], Cost::infinity()};
      changed |= entries_[t] != fresh;
      entries_[t] = fresh;
    }
    return changed;
  }
  // A surviving node keeps its value but may sit elsewhere on the old path,
  // so the new row is staged behind the old one, then moved down. The
  // capacity sticks: a warm row re-keys without allocating.
  entries_.resize(old_size + size);
  const auto old_end =
      entries_.begin() + static_cast<std::ptrdiff_t>(old_size);
  for (std::size_t t = 0; t < size; ++t) {
    const NodeId k = route.path[t + 1];
    const auto survivor = std::find_if(
        entries_.begin(), old_end,
        [k](const std::pair<NodeId, Cost>& e) { return e.first == k; });
    entries_[old_size + t] = {
        k, survivor != old_end ? survivor->second : Cost::infinity()};
  }
  const bool changed =
      !std::equal(entries_.begin(), old_end, old_end, entries_.end());
  entries_.erase(entries_.begin(), old_end);
  return changed;
}

bool ValueRow::reset() {
  bool changed = false;
  for (auto& [node, value] : entries_) {
    if (value.is_finite()) {
      value = Cost::infinity();
      changed = true;
    }
  }
  return changed;
}

Cost ValueRow::get(NodeId k) const {
  for (const auto& [node, value] : entries_)
    if (node == k) return value;
  return Cost::infinity();
}

bool ValueRow::contains(NodeId k) const {
  for (const auto& [node, value] : entries_) {
    (void)value;
    if (node == k) return true;
  }
  return false;
}

bool ValueRow::lower(NodeId k, Cost candidate) {
  for (auto& [node, value] : entries_) {
    if (node == k) {
      if (candidate < value) {
        value = candidate;
        return true;
      }
      return false;
    }
  }
  return false;  // k no longer on the path; stale update, ignore
}

bool ValueRow::complete() const {
  for (const auto& [node, value] : entries_) {
    (void)node;
    if (value.is_infinite()) return false;
  }
  return true;
}

Cost lookup_value(bgp::TransitValues values, NodeId k, bool* found) {
  for (const auto& [node, value] : values) {
    if (node == k) {
      if (found != nullptr) *found = true;
      return value;
    }
  }
  if (found != nullptr) *found = false;
  return Cost::infinity();
}

}  // namespace fpss::pricing
