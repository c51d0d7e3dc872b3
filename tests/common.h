// Shared helpers for the test suites: randomized biconnected instances and
// convenience assertions.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/analysis.h"
#include "graph/graph.h"
#include "graphgen/costs.h"
#include "graphgen/fixtures.h"
#include "graphgen/random.h"
#include "util/rng.h"

namespace fpss::test {

/// A labelled random biconnected graph family for parameterized suites.
struct InstanceSpec {
  const char* family;
  std::size_t n;
  std::uint64_t seed;
  Cost::rep max_cost;
};

inline graph::Graph make_instance(const InstanceSpec& spec) {
  util::Rng rng(spec.seed);
  graph::Graph g{3};
  const std::string family = spec.family;
  if (family == "er") {
    g = graphgen::erdos_renyi(spec.n, 3.0 / static_cast<double>(spec.n), rng);
    graphgen::make_biconnected(g, rng);
  } else if (family == "ba") {
    g = graphgen::barabasi_albert(spec.n, 2, rng);
    graphgen::make_biconnected(g, rng);
  } else if (family == "tiered") {
    graphgen::TieredParams params;
    params.core_count = 4;
    params.mid_count = spec.n / 4;
    params.stub_count = spec.n - params.core_count - params.mid_count;
    g = graphgen::tiered_internet(params, rng);
  } else if (family == "ring") {
    g = graphgen::ring_graph(spec.n);
  } else if (family == "grid") {
    g = graphgen::grid_graph(spec.n / 4, 4);
  } else if (family == "wheel") {
    g = graphgen::wheel_graph(spec.n);
  } else if (family == "clique") {
    g = graphgen::clique_graph(spec.n);
  } else if (family == "waxman") {
    g = graphgen::waxman(spec.n, 0.9, 0.4, rng);
    graphgen::make_biconnected(g, rng);
  } else if (family == "bipartite") {
    g = graphgen::complete_bipartite(spec.n / 3, spec.n - spec.n / 3);
  } else if (family == "hub") {
    g = graphgen::hub_adversarial(spec.n);
  }
  if (family == "pareto-er") {
    g = graphgen::erdos_renyi(spec.n, 3.5 / static_cast<double>(spec.n), rng);
    graphgen::make_biconnected(g, rng);
    graphgen::assign_pareto_costs(g, 1.2, spec.max_cost, rng);
  } else {
    graphgen::assign_random_costs(g, 0, spec.max_cost, rng);
  }
  return g;
}

inline std::vector<InstanceSpec> standard_instances() {
  return {
      {"er", 16, 1, 10},       {"er", 24, 2, 5},      {"er", 32, 3, 20},
      {"ba", 16, 4, 10},       {"ba", 24, 5, 1},      {"ba", 40, 6, 12},
      {"tiered", 24, 7, 9},    {"tiered", 36, 8, 6},  {"ring", 11, 9, 7},
      {"grid", 24, 10, 5},     {"wheel", 13, 11, 8},  {"clique", 9, 12, 15},
      {"er", 20, 13, 0},       {"ba", 20, 14, 3},     {"ring", 8, 15, 2},
      {"waxman", 24, 16, 9},   {"waxman", 36, 17, 4}, {"bipartite", 12, 18, 7},
      {"hub", 14, 19, 10},     {"pareto-er", 28, 20, 60},
      {"er", 48, 21, 1000000}, {"tiered", 48, 22, 7}, {"ba", 48, 23, 15},
      {"grid", 36, 24, 11},    {"ring", 17, 25, 5},
  };
}

/// Polls every 5 ms until `backend` (anything with snapshot()) serves a
/// snapshot whose checksum is `want`; false once `timeout_ms` passed.
template <typename Backend>
bool serves_within(const Backend& backend, std::uint64_t want,
                   int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto snap = backend.snapshot();
    if (snap != nullptr && snap->checksum() == want) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace fpss::test
