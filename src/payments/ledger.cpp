#include "payments/ledger.h"

#include "util/contract.h"

namespace fpss::payments {

Ledger::Ledger(std::size_t node_count)
    : owed_(node_count, 0), settled_(node_count, 0) {}

void Ledger::record_packets(std::span<const NodeId> path,
                            const PriceFn& price, std::uint64_t packets) {
  FPSS_EXPECTS(path.size() >= 2);
  const NodeId i = path.front();
  const NodeId j = path.back();
  for (std::size_t t = 1; t + 1 < path.size(); ++t) {
    const NodeId k = path[t];
    const Cost p = price(k, i, j);
    FPSS_EXPECTS(p.is_finite());
    owed_[k] += static_cast<Cost::rep>(packets) * p.value();
  }
}

Cost::rep Ledger::owed(NodeId k) const {
  FPSS_EXPECTS(k < owed_.size());
  return owed_[k];
}

Cost::rep Ledger::settled(NodeId k) const {
  FPSS_EXPECTS(k < settled_.size());
  return settled_[k];
}

void Ledger::restore(std::vector<Cost::rep> owed,
                     std::vector<Cost::rep> settled) {
  FPSS_EXPECTS(owed.size() == owed_.size() &&
               settled.size() == settled_.size());
  owed_ = std::move(owed);
  settled_ = std::move(settled);
}

void Ledger::settle() {
  for (std::size_t k = 0; k < owed_.size(); ++k) {
    settled_[k] += owed_[k];
    owed_[k] = 0;
  }
}

Cost::rep Ledger::total_outstanding() const {
  Cost::rep sum = 0;
  for (Cost::rep o : owed_) sum += o;
  return sum;
}

std::vector<NodeStatement> settle_traffic(const graph::Graph& g,
                                          const routing::AllPairsRoutes& routes,
                                          const TrafficMatrix& traffic,
                                          const PriceFn& price) {
  FPSS_EXPECTS(traffic.node_count() == g.node_count());
  std::vector<NodeStatement> statements(g.node_count());
  for (NodeId i = 0; i < g.node_count(); ++i) {
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (i == j) continue;
      const std::uint64_t packets = traffic.at(i, j);
      if (packets == 0) continue;
      const graph::Path path = routes.path(i, j);
      for (std::size_t t = 1; t + 1 < path.size(); ++t) {
        const NodeId k = path[t];
        NodeStatement& s = statements[k];
        const Cost p = price(k, i, j);
        FPSS_EXPECTS(p.is_finite());
        s.revenue += static_cast<Cost::rep>(packets) * p.value();
        s.incurred += static_cast<Cost::rep>(packets) * g.cost(k).value();
        s.transit_packets += packets;
      }
    }
  }
  return statements;
}

}  // namespace fpss::payments
