// The unified protocol engine core for the Sect. 5 computational model —
// and for everything the paper's model idealizes away.
//
// One `Engine` drives a `Network` to quiescence through two pluggable
// seams:
//
//  * **Scheduler** (SchedulerKind) — who computes when, and what the
//    logical clock means:
//      - kStage: the lockstep stage model the paper's bounds are stated in
//        ("BGP converges within d stages"; the extended protocol "converges
//        in at most max(d, d')  stages", Theorem 2). Behaviour and stats are
//        bit-for-bit those of the historical SyncEngine.
//      - kEvent: a discrete-event scheduler delivering individual messages
//        at channel-chosen virtual times (subsuming the historical
//        AsyncEngine). The algorithm's correctness rests only on monotone
//        convergence, so it must — and, tests prove, does — reach the exact
//        same routes and prices without the synchrony assumption.
//
//  * **Channel model** (ChannelConfig) — per-link delivery semantics under
//    the event scheduler: fixed / uniform / heavy-tailed (Pareto) delays,
//    MRAI-style advertisement batching, and seeded fault injection —
//    i.i.d. message loss with eventual-delivery retransmission semantics
//    (BGP sessions run over TCP), deterministic timed link flaps, and
//    temporary partitions. All randomness flows from one seed; every run
//    is reproducible.
//
// Kernel capabilities are scheduler-independent: TraceSink observability,
// the persistent deterministic-partition ThreadPool compute phase, shared
// immutable TableMessage exports (identity export filters share one
// refcounted payload across neighbors), reused per-activation buffers, and
// flat per-directed-link accounting (no hashing on the per-message path)
// all work under both schedulers.
//
// Engines count every message, entry, and word exchanged (E5), and record
// the last logical time at which any route or price changed (E4/E6) on a
// unified clock: under kStage the clock equals the stage number; under
// kEvent it is the virtual event time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bgp/agent.h"
#include "bgp/message.h"
#include "graph/graph.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace fpss::bgp {

/// Builds the per-AS algorithm for one node; the engine owns the result.
using AgentFactory =
    std::function<std::unique_ptr<Agent>(NodeId self, std::size_t node_count,
                                         Cost declared_cost)>;

/// A set of ASs wired by the AS graph. Owns both the (mutable) topology and
/// the agents; dynamic events go through here so agents get notified.
class Network {
 public:
  Network(const graph::Graph& g, const AgentFactory& factory);

  std::size_t node_count() const { return agents_.size(); }
  const graph::Graph& topology() const { return graph_; }
  Agent& agent(NodeId v);
  const Agent& agent(NodeId v) const;

  // --- dynamic events ----------------------------------------------------
  void change_cost(NodeId v, Cost new_cost);
  void remove_link(NodeId u, NodeId v);
  void add_link(NodeId u, NodeId v);

  /// Aggregate router state across all nodes (E5).
  StateSize total_state() const;
  StateSize max_state() const;

 private:
  graph::Graph graph_;
  std::vector<std::unique_ptr<Agent>> agents_;
};

/// Counters for one engine run (cumulative across run() calls).
struct RunStats {
  Stage stages = 0;            ///< lockstep stages executed (stage scheduler)
  std::uint64_t messages = 0;  ///< point-to-point messages sent
  MessageSize traffic;         ///< cumulative message payload
  Stage last_route_change_stage = 0;  ///< 1-based; 0 = never changed
  Stage last_value_change_stage = 0;  ///< pricing extension convergence
  std::uint64_t max_link_messages = 0;
  /// Unified logical clock: stage number under the stage scheduler, virtual
  /// event time under the event scheduler.
  double end_time = 0;                ///< clock at quiescence
  double last_route_change_time = 0;
  double last_value_change_time = 0;
  /// Channel-fault casualties: retransmitted copies eaten by i.i.d. loss
  /// plus in-flight deliveries killed by a link flap / partition.
  std::uint64_t lost_messages = 0;
  bool converged = false;      ///< quiesced before hitting the cap
};

/// Which scheduler drives the run. See the file comment.
enum class SchedulerKind {
  kStage,  ///< the paper's lockstep stage model (default)
  kEvent,  ///< discrete-event delivery through the channel model
};

/// One deterministic link flap: the link goes down at `down_time` and (if
/// `up_time > down_time`) comes back at `up_time`. Virtual times are on the
/// event scheduler's clock. In-flight messages on the flapped link are lost
/// (the TCP session dies); after the flap the session restarts.
struct LinkFlap {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double down_time = 0;
  double up_time = 0;  ///< <= down_time means the link never comes back
};

/// A temporary partition: at `down_time` every link between `group` and the
/// rest of the network is cut; at `up_time` exactly those links return.
struct PartitionEvent {
  std::vector<NodeId> group;
  double down_time = 0;
  double up_time = 0;  ///< <= down_time means the partition is permanent
};

/// Per-link delivery semantics (event scheduler). The stage scheduler is
/// the paper's ideal lockstep model and requires `fault_free()` — faults
/// are a property of asynchronous channels, not of the proof model.
struct ChannelConfig {
  enum class Delay {
    kFixed,    ///< every message takes exactly min_delay
    kUniform,  ///< uniform in [min_delay, max_delay]
    kPareto,   ///< heavy-tailed: min_delay * Pareto(alpha), capped at max_delay
  };

  Delay delay = Delay::kUniform;
  double min_delay = 0.1;
  double max_delay = 1.0;
  double pareto_alpha = 1.5;  ///< tail shape for Delay::kPareto

  /// MinRouteAdvertisementInterval: a node's consecutive advertisements are
  /// spaced at least `mrai` apart (updates batch up in the meantime).
  double mrai = 0.0;

  /// i.i.d. per-transmission loss probability in [0, 1). A lost copy is
  /// retransmitted after `rto` (plus a fresh delay draw) until it gets
  /// through — eventual delivery, as over TCP — so loss delays but never
  /// forfeits convergence. Lost copies count into RunStats::lost_messages.
  double loss = 0.0;
  double rto = 1.0;  ///< retransmission timeout added per lost copy

  std::uint64_t seed = 1;  ///< drives delays and loss; same seed, same run

  std::vector<LinkFlap> flaps;
  std::vector<PartitionEvent> partitions;

  bool fault_free() const {
    return loss == 0 && flaps.empty() && partitions.empty();
  }
};

/// Everything that shapes a run. Prefer the `stage()` / `event()` builders
/// for the two common cases.
struct EngineConfig {
  SchedulerKind scheduler = SchedulerKind::kStage;
  /// Parallel width of the compute phase (stage ingest/recompute and the
  /// event scheduler's activation waves). Results are bit-identical at any
  /// width; see util::ThreadPool.
  unsigned threads = 1;
  Stage max_stages = 100000;               ///< per-run() stage cap (kStage)
  std::uint64_t max_messages = 50'000'000; ///< cumulative cap (kEvent)
  ChannelConfig channel;

  static EngineConfig stage(unsigned threads = 1) {
    EngineConfig config;
    config.threads = threads;
    return config;
  }
  static EngineConfig event(ChannelConfig channel = {}) {
    EngineConfig config;
    config.scheduler = SchedulerKind::kEvent;
    config.channel = channel;
    return config;
  }
};

class TraceSink;
class Engine;
class StageScheduler;
class EventScheduler;

/// The scheduler seam: a strategy owning activation order and the logical
/// clock, driving the shared kernel (accounting, trace, thread pool, link
/// ledger). Engine instantiates one per SchedulerKind; new execution models
/// plug in here instead of forking a third engine.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Drives the network until quiescence or a cap; returns this segment's
  /// stats (counters diffed against the start of the call, convergence
  /// markers absolute). May be called again after dynamic events.
  virtual RunStats run(Stage max_stages) = 0;

  /// Current logical clock (stage number / virtual time).
  virtual double now() const = 0;
};

/// The engine: one kernel, pluggable scheduler and channel.
///
/// With `threads > 1` the per-node local computation (ingesting input and
/// recomputing routes/prices) runs on a persistent deterministic-partition
/// thread pool that lives for the whole engine. Agents only touch their own
/// state during that phase, and message delivery stays serialized in node
/// order, so results are bit-identical to the single-threaded engine.
///
/// set_trace => serial only where it matters: every TraceSink callback is
/// emitted from the serial accounting/delivery phase, in deterministic
/// order, never from the parallel compute phase — attaching a trace neither
/// forces the compute phase serial nor requires a synchronized sink.
class Engine {
 public:
  explicit Engine(Network& net, EngineConfig config = {});
  /// Stage-scheduler shorthand (the historical SyncEngine constructor).
  Engine(Network& net, unsigned threads);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs until quiescence (or the configured caps).
  RunStats run();
  /// Same, with a one-off stage cap (stage scheduler; ignored by kEvent,
  /// whose cap is message-count based).
  RunStats run(Stage max_stages);

  /// All counters since construction.
  const RunStats& stats() const { return stats_; }
  Stage current_stage() const { return stats_.stages; }
  /// Snapshot-export hook: how many run() segments have ended quiescent.
  /// Monotone, bumped only at convergence, so a reader holding state
  /// labelled with this value knows exactly which converged network it came
  /// from — the service layer uses it as the published snapshot version.
  std::uint64_t converged_epochs() const { return converged_epochs_; }
  /// Unified logical clock (== current_stage() under the stage scheduler).
  double now() const;
  /// The engine's persistent compute pool; nullptr when threads == 1.
  /// Exposed so converged-state consumers (snapshot export, sink-tree
  /// fingerprinting) can reuse the same deterministic-partition workers
  /// instead of spawning their own. Same ownership rule as the engine's own
  /// phases: one job at a time, submitted by the thread driving the engine.
  util::ThreadPool* pool() const { return pool_.get(); }
  /// Widens the compute pool to at least `width` workers (no-op when it is
  /// already that wide, including the width-1 "no pool" case when width <= 1).
  /// Exists for consumers like a pooled snapshot export that want more
  /// concurrency than the protocol kernels were configured with: the engine's
  /// own phases are width-invariant (deterministic stride partition), so
  /// widening never changes protocol results. Must be called between jobs by
  /// the thread driving the engine — the same ownership rule as pool().
  util::ThreadPool* ensure_pool(unsigned width);
  SchedulerKind scheduler() const { return config_.scheduler; }
  const EngineConfig& config() const { return config_; }

  /// Attaches an observer (nullptr detaches). Not owned; must outlive the
  /// engine or be detached before destruction. Works under both schedulers.
  void set_trace(TraceSink* trace) { trace_ = trace; }

 private:
  friend class StageScheduler;
  friend class EventScheduler;

  /// Flat per-directed-link ledger: a CSR snapshot of the adjacency lists
  /// carrying the per-link message counters (E5's max_link_messages), the
  /// event scheduler's per-link FIFO clocks (BGP sessions run over TCP:
  /// deliveries on one directed link are ordered), and a TCP-session epoch
  /// used to kill in-flight messages across link flaps. The slot of
  /// (u, neighbors(u)[i]) is offset[u] + i, so the per-message accounting
  /// path is an array index — no hashing. sync() remaps the keyed state
  /// when Graph::version() moves; links that vanish drop their counters
  /// (a re-added link is a new TCP session and starts over).
  struct LinkLedger {
    static constexpr std::size_t npos = ~std::size_t{0};

    std::vector<std::size_t> offset;    ///< node -> first slot (n+1 fence)
    std::vector<NodeId> to;             ///< slot -> neighbor id
    std::vector<std::uint64_t> count;   ///< messages sent over this link
    std::vector<double> fifo_clock;     ///< latest promised delivery time
    std::vector<std::uint32_t> epoch;   ///< TCP-session generation
    std::uint64_t synced_version = ~std::uint64_t{0};
    std::uint32_t next_epoch = 0;

    void sync(const graph::Graph& g);
    std::size_t base(NodeId u) const { return offset[u]; }
    /// Slot of directed link (u, v); npos if the link does not exist.
    std::size_t slot(NodeId u, NodeId v) const;
  };

  /// bootstrap() every agent exactly once (parallel when a pool exists —
  /// agents only touch their own state there).
  void bootstrap_agents();

  Network& net_;
  EngineConfig config_;
  RunStats stats_;
  std::uint64_t converged_epochs_ = 0;
  TraceSink* trace_ = nullptr;
  std::unique_ptr<util::ThreadPool> pool_;  ///< non-null iff threads > 1
  LinkLedger links_;
  bool bootstrapped_ = false;
  /// Last member: destroyed first, while the kernel state it references
  /// is still alive.
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace fpss::bgp
