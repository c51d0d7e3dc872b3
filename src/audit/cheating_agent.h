// Deviant protocol implementations (Sect. 7): ASs that input true costs
// but *run a different algorithm*, corrupting the pricing payload of the
// messages they send. Used to exercise the auditor.
#pragma once

#include "bgp/engine.h"
#include "pricing/pricing_agent.h"

namespace fpss::audit {

enum class CheatMode {
  kHonest,
  /// Advertises every price as zero: suppresses the premiums downstream
  /// nodes would otherwise owe other ASs (griefing / undercutting).
  kDeflatePrices,
  /// Advertises every finite price multiplied and padded upward: tries to
  /// steer inflated premiums toward the nodes on its paths.
  kInflatePrices,
  /// Pads the advertised path cost without touching the per-node costs —
  /// an arithmetic inconsistency in the routing fields themselves.
  kPadPathCost,
};

const char* to_string(CheatMode mode);

/// A price-vector agent that corrupts its outgoing adverts per `mode`.
/// Its *internal* computation stays honest — the corruption happens at the
/// wire, exactly the threat the paper describes.
class CheatingAgent : public pricing::PriceVectorAgent {
 public:
  CheatingAgent(NodeId self, std::size_t node_count, Cost declared_cost,
                bgp::UpdatePolicy policy, CheatMode mode);

 protected:
  void decorate(bgp::TableMessage::Draft entry) override;

 private:
  CheatMode mode_;
};

/// Factory where node `cheater` runs `mode` and everyone else is honest.
bgp::AgentFactory make_cheating_factory(NodeId cheater, CheatMode mode,
                                        bgp::UpdatePolicy policy);

}  // namespace fpss::audit
