#include "pricing/verify.h"

#include <sstream>

#include "graph/path.h"

namespace fpss::pricing {

VerifyResult verify_against_centralized(const Session& session,
                                        const mechanism::VcgMechanism& mech) {
  VerifyResult result;
  const std::size_t n = mech.routes().node_count();
  auto note = [&result](const std::string& diff) {
    if (result.first_diff.empty()) result.first_diff = diff;
  };

  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      ++result.pairs_checked;
      const bgp::SelectedRoute& distributed = session.route(i, j);
      const graph::Path expected = mech.routes().path(i, j);
      if (!distributed.valid() || distributed.path != expected ||
          distributed.cost != mech.routes().cost(i, j)) {
        ++result.route_mismatches;
        std::ostringstream os;
        os << "route " << i << "->" << j << ": distributed "
           << (distributed.valid()
                   ? graph::path_to_string(graph::Path(
                         distributed.path.begin(), distributed.path.end()))
                   : std::string("<none>"))
           << " vs centralized " << graph::path_to_string(expected);
        note(os.str());
        continue;
      }
      for (std::size_t t = 1; t + 1 < expected.size(); ++t) {
        const NodeId k = expected[t];
        ++result.price_entries_checked;
        const Cost got = session.price(k, i, j);
        const Cost want = mech.price(k, i, j);
        if (got != want) {
          ++result.price_mismatches;
          std::ostringstream os;
          os << "price p^" << k << "_(" << i << "," << j << "): distributed "
             << got.to_string() << " vs centralized " << want.to_string();
          note(os.str());
        }
      }
    }
  }
  result.ok = result.route_mismatches == 0 && result.price_mismatches == 0;
  return result;
}

}  // namespace fpss::pricing
