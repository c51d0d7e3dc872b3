// E19 (extension) — reconvergence churn ("path hunting").
//
// Sect. 6 notes only that convergence restarts on every route change; this
// bench measures what a restart costs in practice. After a failure,
// path-vector protocols explore transient detours before settling (BGP
// path hunting), and the pricing layer re-runs on top of that. We fail the
// highest-degree node's busiest link and record, per family:
//   * route churn: how many per-node route changes the failure triggers
//     beyond the minimum (the pairs whose final route actually changed);
//   * the per-stage churn curve (via the StageSeries trace);
//   * how MRAI batching in the asynchronous engine damps the message storm
//     for the same event.
#include <iostream>

#include "bench_common.h"
#include "bgp/trace.h"
#include "pricing/session.h"
#include "stats/experiment.h"
#include "util/table.h"

namespace {

using namespace fpss;

/// The link whose failure should hurt: the max-degree node's first edge
/// whose removal keeps the graph biconnected.
std::pair<NodeId, NodeId> pick_victim_link(const graph::Graph& g) {
  NodeId hub = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  for (NodeId u : g.neighbors(hub)) {
    graph::Graph probe = g;
    probe.remove_edge(hub, u);
    if (graph::is_biconnected(probe)) return {hub, u};
  }
  return {kInvalidNode, kInvalidNode};
}

}  // namespace

int main() {
  stats::Experiment exp("E19", "Reconvergence churn after a core link "
                               "failure (path hunting)");

  util::Table table({"family", "n", "event stages", "route changes",
                     "final routes changed", "churn x", "async msgs",
                     "async msgs (MRAI)"});
  bool churn_exceeds_minimum = true;
  bool mrai_damps = true;

  for (auto& workload : bench::family_sweep(64, 17000)) {
    const auto& g = workload.g;
    const auto [a, b] = pick_victim_link(g);
    if (a == kInvalidNode) continue;

    // --- synchronous run with a churn trace -------------------------------
    pricing::Session session(g, pricing::Protocol::kPriceVector);
    session.run();
    // Snapshot final routes before the event.
    std::vector<graph::Path> before;
    for (NodeId i = 0; i < g.node_count(); ++i) {
      for (NodeId j = 0; j < g.node_count(); ++j) {
        const bgp::RoutePath& path = session.route(i, j).path;
        before.emplace_back(path.begin(), path.end());
      }
    }

    bgp::StageSeries series;
    session.engine().set_trace(&series);
    const auto stats =
        session.remove_link(a, b, pricing::RestartPolicy::kRestartBarrier);
    session.engine().set_trace(nullptr);

    std::uint64_t route_changes = 0;
    for (const auto& row : series.rows()) route_changes += row.route_changes;
    std::size_t final_changed = 0, idx = 0;
    for (NodeId i = 0; i < g.node_count(); ++i)
      for (NodeId j = 0; j < g.node_count(); ++j, ++idx)
        if (i != j && session.route(i, j).path != before[idx])
          ++final_changed;
    // Transient exploration: per-node change events exceed the number of
    // nodes that needed to end up somewhere new.
    const double churn = final_changed == 0
                             ? 0.0
                             : static_cast<double>(route_changes) *
                                   static_cast<double>(g.node_count()) /
                                   static_cast<double>(final_changed);
    churn_exceeds_minimum &= route_changes > 0;

    // --- asynchronous storm, with and without MRAI -------------------------
    auto async_messages = [&](double mrai) {
      bgp::ChannelConfig channel;
      channel.seed = 77;
      channel.mrai = mrai;
      pricing::Session async(g, pricing::Protocol::kPriceVector,
                             bgp::EngineConfig::event(channel));
      async.run();
      const auto event = async.remove_link(
          a, b, pricing::RestartPolicy::kRestartBarrier);
      return event.messages;
    };
    const std::uint64_t raw = async_messages(0.0);
    const std::uint64_t damped = async_messages(3.0);
    mrai_damps &= damped < raw;

    table.add(workload.name, g.node_count(), stats.stages, route_changes,
              final_changed, util::format_double(churn, 2), raw, damped);
  }
  exp.table("Failing the best-connected node's link", table);

  exp.claim("a single link failure triggers network-wide transient route "
            "recomputation before the new stable routes emerge",
            "per-node route-change events > 0 on every family",
            churn_exceeds_minimum);
  exp.claim("MRAI-style batching damps the asynchronous reconvergence "
            "storm for the same event",
            "fewer messages with MRAI on every family", mrai_damps);
  exp.note("'churn x' normalizes transient change events by the number of "
           "pairs whose route genuinely had to move.");
  return stats::finish(exp);
}
