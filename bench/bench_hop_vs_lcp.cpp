// E14 (extension) — what the paper's "trivial modification" to BGP is
// worth. Sect. 1: unmodified BGP "simply computes shortest AS paths in
// terms of number of AS hops"; the mechanism needs true lowest-cost paths
// and the paper assumes that modification has been made. This bench runs
// both selection rules on the same topologies/costs and measures the
// welfare gap: total transit cost V(c) under hop-count routing vs LCP
// routing, and the fraction of pairs whose route differs.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bgp/hop_count_agent.h"
#include "graph/path.h"
#include "mechanism/welfare.h"
#include "payments/traffic.h"
#include "pricing/session.h"
#include "routing/all_pairs.h"
#include "stats/experiment.h"
#include "util/table.h"

int main() {
  using namespace fpss;
  stats::Experiment exp("E14", "Hop-count BGP vs lowest-cost BGP "
                               "(Sect. 1's 'trivial modification')");

  util::Table table({"family", "n", "pairs off-LCP", "V(c) hop-count",
                     "V(c) LCP", "excess %"});
  bool lcp_never_worse = true;
  bool gap_exists = false;

  for (std::size_t n : {48u, 96u}) {
    for (auto& workload : bench::family_sweep(n, 12000 + n)) {
      const auto& g = workload.g;
      const routing::AllPairsRoutes lcp(g);
      const auto traffic = payments::TrafficMatrix::uniform(n, 1);

      // Hop-count routes, computed by the protocol itself.
      bgp::Network net(g, bgp::make_hop_count_factory(
                              bgp::UpdatePolicy::kIncremental));
      bgp::Engine engine(net);
      engine.run();

      Cost::rep v_hop = 0, v_lcp = 0;
      std::size_t off_lcp = 0, pairs = 0;
      for (NodeId i = 0; i < n; ++i) {
        const auto& agent =
            static_cast<const bgp::PlainBgpAgent&>(net.agent(i));
        for (NodeId j = 0; j < n; ++j) {
          if (i == j) continue;
          ++pairs;
          const auto& hop_route = agent.selected(j);
          const graph::Path hop_path(hop_route.path.begin(),
                                     hop_route.path.end());
          const Cost hop_cost = graph::transit_cost(g, hop_path);
          v_hop += hop_cost.value();
          v_lcp += lcp.cost(i, j).value();
          lcp_never_worse &= hop_cost >= lcp.cost(i, j);
          off_lcp += hop_path != lcp.path(i, j);
        }
      }
      gap_exists |= v_hop > v_lcp;
      const double excess =
          v_lcp == 0 ? 0.0
                     : 100.0 * static_cast<double>(v_hop - v_lcp) /
                           static_cast<double>(v_lcp);
      table.add(workload.name, n,
                util::format_double(100.0 * static_cast<double>(off_lcp) /
                                        static_cast<double>(pairs),
                                    1) + "%",
                v_hop, v_lcp, util::format_double(excess, 1));
    }
  }
  exp.table("Total transit cost under the two selection rules", table);

  exp.claim("LCP routing minimizes V(c): hop-count routing is never "
            "cheaper on any pair",
            "hop-count pair cost >= LCP pair cost everywhere",
            lcp_never_worse);
  exp.claim("the 'trivial modification' has real value: hop-count routing "
            "pays a measurable welfare excess",
            "V(c) strictly larger under hop-count on some families",
            gap_exists);
  exp.note("Excess % = extra total transit cost society pays because "
           "routers pick fewest-hops paths instead of cheapest paths.");
  return stats::finish(exp);
}
