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
  // so the new row is built beside the old one, then copied over it.
  Entries fresh;
  fresh.resize(size);
  for (std::size_t t = 0; t < size; ++t) {
    const NodeId k = route.path[t + 1];
    const auto survivor = std::ranges::find(
        entries_, k, &std::pair<NodeId, Cost>::first);
    fresh[t] = {k, survivor != entries_.end() ? survivor->second
                                              : Cost::infinity()};
  }
  const bool changed = fresh != entries_;
  entries_ = fresh;
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

bool ValueRow::lower_at(std::size_t index, NodeId k, Cost candidate) {
  if (index >= entries_.size() || entries_[index].first != k)
    return lower(k, candidate);
  Cost& value = entries_[index].second;
  if (!(candidate < value)) return false;
  value = candidate;
  return true;
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
