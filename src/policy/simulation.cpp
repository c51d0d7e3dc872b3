#include "policy/simulation.h"

namespace fpss::policy {

PolicyRun run_policy_routing(const graph::Graph& g,
                             const Relationships& relationships,
                             bgp::UpdatePolicy policy) {
  PolicyRun run;
  bgp::Network net(g, make_policy_factory(&relationships, policy));
  bgp::Engine engine(net);
  run.stats = engine.run();
  run.converged = run.stats.converged;

  const std::size_t n = g.node_count();
  run.paths.assign(n, std::vector<graph::Path>(n));
  run.complete = true;
  run.valley_free = true;
  for (NodeId i = 0; i < n; ++i) {
    const auto& agent = static_cast<const PolicyBgpAgent&>(net.agent(i));
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const bgp::SelectedRoute& route = agent.selected(j);
      if (!route.valid()) {
        run.complete = false;
        continue;
      }
      run.paths[i][j].assign(route.path.begin(), route.path.end());
      run.valley_free &= relationships.is_valley_free(run.paths[i][j]);
    }
  }
  return run;
}

}  // namespace fpss::policy
