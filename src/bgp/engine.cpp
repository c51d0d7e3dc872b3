#include "bgp/engine.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <utility>

#include "bgp/trace.h"
#include "util/contract.h"
#include "util/rng.h"

namespace fpss::bgp {

Network::Network(const graph::Graph& g, const AgentFactory& factory)
    : graph_(g) {
  agents_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v)
    agents_.push_back(factory(v, g.node_count(), g.cost(v)));
}

Agent& Network::agent(NodeId v) {
  FPSS_EXPECTS(v < agents_.size());
  return *agents_[v];
}

const Agent& Network::agent(NodeId v) const {
  FPSS_EXPECTS(v < agents_.size());
  return *agents_[v];
}

void Network::change_cost(NodeId v, Cost new_cost) {
  graph_.set_cost(v, new_cost);
  agent(v).on_self_cost_change(new_cost);
}

void Network::remove_link(NodeId u, NodeId v) {
  const bool removed = graph_.remove_edge(u, v);
  FPSS_EXPECTS(removed);
  agent(u).on_link_down(v);
  agent(v).on_link_down(u);
}

void Network::add_link(NodeId u, NodeId v) {
  const bool added = graph_.add_edge(u, v);
  FPSS_EXPECTS(added);
  agent(u).on_link_up(v);
  agent(v).on_link_up(u);
}

StateSize Network::total_state() const {
  StateSize total;
  for (const auto& agent : agents_) {
    const StateSize s = agent->state_size();
    total.selected_words += s.selected_words;
    total.rib_in_words += s.rib_in_words;
    total.value_words += s.value_words;
  }
  return total;
}

StateSize Network::max_state() const {
  StateSize peak;
  for (const auto& agent : agents_) {
    const StateSize s = agent->state_size();
    if (s.total_words() > peak.total_words()) peak = s;
  }
  return peak;
}

// ---------------------------------------------------------------------------
// LinkLedger
// ---------------------------------------------------------------------------

void Engine::LinkLedger::sync(const graph::Graph& g) {
  if (synced_version == g.version()) return;
  const std::size_t n = g.node_count();
  std::vector<std::size_t> new_offset(n + 1, 0);
  std::vector<NodeId> new_to;
  new_to.reserve(2 * g.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    new_offset[u] = new_to.size();
    const auto nb = g.neighbors(u);
    new_to.insert(new_to.end(), nb.begin(), nb.end());
  }
  new_offset[n] = new_to.size();

  std::vector<std::uint64_t> new_count(new_to.size(), 0);
  std::vector<double> new_fifo(new_to.size(), 0.0);
  std::vector<std::uint32_t> new_epoch(new_to.size(), 0);
  const std::size_t old_n = offset.empty() ? 0 : offset.size() - 1;
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t s = new_offset[u]; s < new_offset[u + 1]; ++s) {
      // Carry keyed state for links that survive the remap; a link that was
      // removed and re-added is a new TCP session (fresh epoch, counters
      // start over).
      const std::size_t old = u < old_n ? slot(u, new_to[s]) : npos;
      if (old != npos) {
        new_count[s] = count[old];
        new_fifo[s] = fifo_clock[old];
        new_epoch[s] = epoch[old];
      } else {
        new_epoch[s] = ++next_epoch;
      }
    }
  }
  offset = std::move(new_offset);
  to = std::move(new_to);
  count = std::move(new_count);
  fifo_clock = std::move(new_fifo);
  epoch = std::move(new_epoch);
  synced_version = g.version();
}

std::size_t Engine::LinkLedger::slot(NodeId u, NodeId v) const {
  const auto first = to.begin() + static_cast<std::ptrdiff_t>(offset[u]);
  const auto last = to.begin() + static_cast<std::ptrdiff_t>(offset[u + 1]);
  const auto it = std::lower_bound(first, last, v);
  if (it == last || *it != v) return npos;
  return static_cast<std::size_t>(it - to.begin());
}

// ---------------------------------------------------------------------------
// StageScheduler: the paper's lockstep model (Sect. 5)
// ---------------------------------------------------------------------------

/// Runs the network in synchronized stages: every stage, each node ingests
/// everything that arrived in the previous stage, recomputes, and
/// advertises; all of a stage's messages arrive together at the next one.
/// This is the model the paper's stage-count bounds are stated in, and its
/// behaviour (down to every counter) is the reference the event scheduler's
/// convergence results are checked against.
class StageScheduler final : public Scheduler {
 public:
  explicit StageScheduler(Engine& eng)
      : eng_(eng),
        inbox_(eng.net_.node_count()),
        arriving_(eng.net_.node_count()),
        outputs_(eng.net_.node_count()) {}

  RunStats run(Stage max_stages) override;
  double now() const override { return eng_.stats_.stages; }

 private:
  Engine& eng_;
  // Stage buffers, reused across stages and runs (capacities stick).
  std::vector<std::vector<MessageRef>> inbox_;
  std::vector<std::vector<MessageRef>> arriving_;
  std::vector<std::optional<TableMessage>> outputs_;
};

RunStats StageScheduler::run(Stage max_stages) {
  Network& net = eng_.net_;
  RunStats& stats = eng_.stats_;
  TraceSink* const trace = eng_.trace_;
  const RunStats before = stats;
  eng_.bootstrap_agents();
  eng_.links_.sync(net.topology());
  stats.converged = false;
  Stage executed = 0;
  for (;;) {
    const Stage stage = stats.stages + 1;
    bool had_input = false;
    // Receive + local-compute phase. Each node only touches its own
    // state here, so the work parallelizes across nodes; delivery below
    // stays in node order either way, keeping runs bit-identical. The
    // stage buffers are members reused across stages: the swap takes this
    // stage's input, and the cleared vectors (capacities kept) become the
    // next inbox.
    arriving_.swap(inbox_);
    for (auto& box : inbox_) box.clear();
    for (const auto& box : arriving_) had_input |= !box.empty();

    auto compute_node = [&](std::size_t v_) {
      const NodeId v = static_cast<NodeId>(v_);
      for (const MessageRef& msg : arriving_[v]) net.agent(v).receive(msg);
      outputs_[v] = net.agent(v).advertise();
    };
    // Tracing never hears from this phase — every TraceSink callback fires
    // from the serial phase below — so it does not force serial compute.
    if (eng_.pool_ != nullptr && net.node_count() > 1) {
      eng_.pool_->parallel_for(net.node_count(), compute_node);
    } else {
      for (NodeId v = 0; v < net.node_count(); ++v) compute_node(v);
    }
    if (trace != nullptr && had_input) trace->on_stage_begin(stage);

    // Accounting + delivery phase (serial, node order).
    std::uint64_t produced = 0;
    for (NodeId v = 0; v < net.node_count(); ++v) {
      Agent& agent = net.agent(v);
      if (agent.routes_changed_last_compute()) {
        stats.last_route_change_stage = stage;
        if (trace != nullptr) trace->on_route_change(stage, v);
      }
      if (agent.values_changed_last_compute()) {
        stats.last_value_change_stage = stage;
        if (trace != nullptr) trace->on_value_change(stage, v);
      }
      std::optional<TableMessage>& out = outputs_[v];
      if (!out.has_value()) continue;
      // The ledger slot of (v, neighbors[i]) is base + i: per-message link
      // accounting is one array index, no hashing.
      const auto neighbors = net.topology().neighbors(v);
      const std::size_t base = eng_.links_.base(v);
      const auto deliver = [&](NodeId neighbor, std::size_t slot,
                               MessageRef msg, const MessageSize& size) {
        stats.traffic += size;
        if (trace != nullptr) trace->on_message(stage, v, neighbor, size);
        inbox_[neighbor].push_back(std::move(msg));
        ++produced;
        ++stats.messages;
        stats.max_link_messages =
            std::max(stats.max_link_messages, ++eng_.links_.count[slot]);
      };
      if (!agent.filters_exports()) {
        // Identity export: all neighbors share one immutable payload
        // instead of a deep copy of the full table per neighbor.
        if (!out->empty()) {
          const auto shared =
              std::make_shared<const TableMessage>(std::move(*out));
          const MessageSize size = measure(*shared);
          for (std::size_t i = 0; i < neighbors.size(); ++i)
            deliver(neighbors[i], base + i, shared, size);
        }
      } else {
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          TableMessage filtered = agent.export_filter(neighbors[i], *out);
          if (filtered.empty()) continue;
          const MessageSize size = measure(filtered);
          deliver(neighbors[i], base + i,
                  std::make_shared<const TableMessage>(std::move(filtered)),
                  size);
        }
      }
      out.reset();
    }
    if (!had_input && produced == 0) {
      stats.converged = true;  // probe stage: nothing happened, not counted
      if (trace != nullptr) trace->on_quiescent(stats.stages);
      break;
    }
    stats.stages = stage;
    if (++executed >= max_stages) break;
  }
  // The unified clock: under the stage scheduler logical time is the stage
  // number, so the time fields mirror the stage fields.
  stats.end_time = stats.stages;
  stats.last_route_change_time = stats.last_route_change_stage;
  stats.last_value_change_time = stats.last_value_change_stage;

  RunStats segment = stats;
  segment.stages -= before.stages;
  segment.messages -= before.messages;
  segment.traffic -= before.traffic;
  segment.converged = stats.converged;
  return segment;
}

// ---------------------------------------------------------------------------
// EventScheduler: discrete-event delivery through the channel model
// ---------------------------------------------------------------------------

/// Runs the network as a discrete-event simulation: every message is an
/// event delivered at a channel-chosen virtual time (per-link FIFO — BGP
/// sessions run over TCP), nodes recompute on each delivery, and fault
/// injection (loss, flaps, partitions) is woven into the same event queue.
/// Correctness under this scheduler is exactly the paper's monotone-
/// convergence argument: no synchrony is assumed, only eventual delivery.
class EventScheduler final : public Scheduler {
 public:
  explicit EventScheduler(Engine& eng)
      : eng_(eng),
        rng_(eng.config_.channel.seed),
        last_advert_time_(eng.net_.node_count(), -1e18),
        poll_scheduled_(eng.net_.node_count(), 0),
        active_(eng.net_.node_count(), 0),
        outputs_(eng.net_.node_count()) {}

  RunStats run(Stage max_stages) override;
  double now() const override { return now_; }

 private:
  struct Event {
    enum class Kind : std::uint8_t {
      kDeliver,        ///< msg arrives at node (from peer, session-stamped)
      kPoll,           ///< node's MRAI window expired; recompute+advertise
      kLinkDown,       ///< fault injection: cut link {node, peer}
      kLinkUp,         ///< fault injection: restore link {node, peer}
      kPartitionDown,  ///< fault injection: cut partition #index
      kPartitionUp,    ///< fault injection: heal partition #index
    };
    double time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break: equal times keep send order
    Kind kind = Kind::kDeliver;
    NodeId node = kInvalidNode;
    NodeId peer = kInvalidNode;
    std::uint32_t session = 0;  ///< link epoch at send time (kDeliver)
    std::size_t index = 0;      ///< partition index (kPartition*)
    MessageRef msg;

    friend bool operator>(const Event& a, const Event& b) {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  double sample_delay();
  void push(Event ev) { queue_.push(std::move(ev)); }
  void send(NodeId from, NodeId to, std::size_t slot, MessageRef msg,
            const MessageSize& size);
  void flood(NodeId sender, TableMessage&& out);
  void note_changes(NodeId node);
  void activate(NodeId node);
  void kick_all();
  void schedule_faults();
  void link_down(NodeId u, NodeId v);
  void link_up(NodeId u, NodeId v);
  void partition_down(std::size_t index);
  void partition_up(std::size_t index);
  void activate_endpoints(const std::vector<std::pair<NodeId, NodeId>>& links);

  Engine& eng_;
  util::Rng rng_;
  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  Stage tick_ = 0;  ///< processed-event ordinal: the trace "stage"
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::vector<double> last_advert_time_;
  std::vector<char> poll_scheduled_;
  std::vector<char> active_;  ///< kick_all scratch: node advertises this wave
  std::vector<std::optional<TableMessage>> outputs_;  ///< kick_all scratch
  bool faults_scheduled_ = false;
  /// Per partition: the cross links cut at down_time, restored at up_time.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> partition_cut_;
};

double EventScheduler::sample_delay() {
  const ChannelConfig& ch = eng_.config_.channel;
  switch (ch.delay) {
    case ChannelConfig::Delay::kFixed:
      return ch.min_delay;
    case ChannelConfig::Delay::kUniform:
      return ch.min_delay + rng_.uniform01() * (ch.max_delay - ch.min_delay);
    case ChannelConfig::Delay::kPareto:
      return ch.min_delay *
             rng_.pareto(ch.pareto_alpha, ch.max_delay / ch.min_delay);
  }
  FPSS_ASSERT(false);
  return ch.min_delay;
}

void EventScheduler::send(NodeId from, NodeId to, std::size_t slot,
                          MessageRef msg, const MessageSize& size) {
  const ChannelConfig& ch = eng_.config_.channel;
  double delay = sample_delay();
  // i.i.d. loss with eventual delivery: each lost copy costs one RTO plus a
  // fresh transmission delay; the message always gets through in the end
  // (the TCP session retransmits), so loss slows convergence but cannot
  // forfeit it.
  while (ch.loss > 0 && rng_.chance(ch.loss)) {
    ++eng_.stats_.lost_messages;
    if (eng_.trace_ != nullptr) eng_.trace_->on_drop(tick_, from, to);
    delay += ch.rto + sample_delay();
  }
  // Per-link FIFO (the TCP session): never deliver before an earlier
  // message on the same directed link.
  double& clock = eng_.links_.fifo_clock[slot];
  clock = std::max(clock, now_ + delay);
  eng_.stats_.traffic += size;
  ++eng_.stats_.messages;
  eng_.stats_.max_link_messages =
      std::max(eng_.stats_.max_link_messages, ++eng_.links_.count[slot]);
  if (eng_.trace_ != nullptr) eng_.trace_->on_message(tick_, from, to, size);
  Event ev;
  ev.time = clock;
  ev.seq = next_seq_++;
  ev.kind = Event::Kind::kDeliver;
  ev.node = to;
  ev.peer = from;
  ev.session = eng_.links_.epoch[slot];
  ev.msg = std::move(msg);
  push(std::move(ev));
}

void EventScheduler::flood(NodeId sender, TableMessage&& out) {
  Agent& agent = eng_.net_.agent(sender);
  const auto neighbors = eng_.net_.topology().neighbors(sender);
  const std::size_t base = eng_.links_.base(sender);
  if (!agent.filters_exports()) {
    // Identity export: all neighbors share one immutable payload.
    if (out.empty()) return;
    const auto shared = std::make_shared<const TableMessage>(std::move(out));
    const MessageSize size = measure(*shared);
    for (std::size_t i = 0; i < neighbors.size(); ++i)
      send(sender, neighbors[i], base + i, shared, size);
  } else {
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      TableMessage filtered = agent.export_filter(neighbors[i], out);
      if (filtered.empty()) continue;
      const MessageSize size = measure(filtered);
      send(sender, neighbors[i], base + i,
           std::make_shared<const TableMessage>(std::move(filtered)), size);
    }
  }
}

void EventScheduler::note_changes(NodeId node) {
  Agent& agent = eng_.net_.agent(node);
  if (agent.routes_changed_last_compute()) {
    eng_.stats_.last_route_change_time = now_;
    if (eng_.trace_ != nullptr) eng_.trace_->on_route_change(tick_, node);
  }
  if (agent.values_changed_last_compute()) {
    eng_.stats_.last_value_change_time = now_;
    if (eng_.trace_ != nullptr) eng_.trace_->on_value_change(tick_, node);
  }
}

void EventScheduler::activate(NodeId node) {
  const ChannelConfig& ch = eng_.config_.channel;
  if (ch.mrai > 0 && now_ < last_advert_time_[node] + ch.mrai) {
    // MRAI: defer this node's computation+advertisement; batch updates.
    if (!poll_scheduled_[node]) {
      poll_scheduled_[node] = 1;
      Event ev;
      ev.time = last_advert_time_[node] + ch.mrai;
      ev.seq = next_seq_++;
      ev.kind = Event::Kind::kPoll;
      ev.node = node;
      push(std::move(ev));
    }
    return;
  }
  std::optional<TableMessage> out = eng_.net_.agent(node).advertise();
  note_changes(node);
  if (out.has_value()) {
    last_advert_time_[node] = now_;
    flood(node, std::move(*out));
  }
}

void EventScheduler::kick_all() {
  Network& net = eng_.net_;
  const std::size_t n = net.node_count();
  const ChannelConfig& ch = eng_.config_.channel;
  // Serial: decide MRAI deferral per node (may schedule poll events).
  for (NodeId v = 0; v < n; ++v) {
    if (ch.mrai > 0 && now_ < last_advert_time_[v] + ch.mrai) {
      active_[v] = 0;
      if (!poll_scheduled_[v]) {
        poll_scheduled_[v] = 1;
        Event ev;
        ev.time = last_advert_time_[v] + ch.mrai;
        ev.seq = next_seq_++;
        ev.kind = Event::Kind::kPoll;
        ev.node = v;
        push(std::move(ev));
      }
    } else {
      active_[v] = 1;
    }
  }
  // Parallel compute phase: each node only touches its own state. This is
  // the wave where the thread pool pays off under the event scheduler —
  // once the queue is draining, deliveries are inherently one-at-a-time.
  auto compute_node = [&](std::size_t v_) {
    const NodeId v = static_cast<NodeId>(v_);
    if (active_[v]) outputs_[v] = net.agent(v).advertise();
  };
  if (eng_.pool_ != nullptr && n > 1) {
    eng_.pool_->parallel_for(n, compute_node);
  } else {
    for (NodeId v = 0; v < n; ++v) compute_node(v);
  }
  // Serial accounting + flood, node order: delays/loss draws and seq
  // numbers come out in a fixed order, keeping runs seed-reproducible at
  // any thread count.
  for (NodeId v = 0; v < n; ++v) {
    if (!active_[v]) continue;
    note_changes(v);
    if (outputs_[v].has_value()) {
      last_advert_time_[v] = now_;
      flood(v, std::move(*outputs_[v]));
    }
    outputs_[v].reset();
  }
}

void EventScheduler::schedule_faults() {
  const ChannelConfig& ch = eng_.config_.channel;
  for (const LinkFlap& flap : ch.flaps) {
    Event down;
    down.time = flap.down_time;
    down.seq = next_seq_++;
    down.kind = Event::Kind::kLinkDown;
    down.node = flap.u;
    down.peer = flap.v;
    push(std::move(down));
    if (flap.up_time > flap.down_time) {
      Event up;
      up.time = flap.up_time;
      up.seq = next_seq_++;
      up.kind = Event::Kind::kLinkUp;
      up.node = flap.u;
      up.peer = flap.v;
      push(std::move(up));
    }
  }
  partition_cut_.resize(ch.partitions.size());
  for (std::size_t i = 0; i < ch.partitions.size(); ++i) {
    Event down;
    down.time = ch.partitions[i].down_time;
    down.seq = next_seq_++;
    down.kind = Event::Kind::kPartitionDown;
    down.index = i;
    push(std::move(down));
    if (ch.partitions[i].up_time > ch.partitions[i].down_time) {
      Event up;
      up.time = ch.partitions[i].up_time;
      up.seq = next_seq_++;
      up.kind = Event::Kind::kPartitionUp;
      up.index = i;
      push(std::move(up));
    }
  }
}

void EventScheduler::activate_endpoints(
    const std::vector<std::pair<NodeId, NodeId>>& links) {
  // Activate each affected node once, in node order (repeat activations
  // are harmless — advertise() is a no-op without changes — but the
  // deduped order keeps the event sequence deterministic and minimal).
  std::fill(active_.begin(), active_.end(), 0);
  for (const auto& [a, b] : links) active_[a] = active_[b] = 1;
  for (NodeId v = 0; v < eng_.net_.node_count(); ++v)
    if (active_[v]) activate(v);
}

void EventScheduler::link_down(NodeId u, NodeId v) {
  // has_edge guard: overlapping faults (a partition may already have cut
  // this link) make the event a no-op instead of a contract violation.
  if (!eng_.net_.topology().has_edge(u, v)) return;
  eng_.net_.remove_link(u, v);
  eng_.links_.sync(eng_.net_.topology());
  if (eng_.trace_ != nullptr) eng_.trace_->on_link_event(tick_, u, v, false);
  activate_endpoints({{u, v}});
}

void EventScheduler::link_up(NodeId u, NodeId v) {
  if (eng_.net_.topology().has_edge(u, v)) return;
  eng_.net_.add_link(u, v);
  eng_.links_.sync(eng_.net_.topology());
  if (eng_.trace_ != nullptr) eng_.trace_->on_link_event(tick_, u, v, true);
  activate_endpoints({{u, v}});
}

void EventScheduler::partition_down(std::size_t index) {
  Network& net = eng_.net_;
  std::vector<char> in_group(net.node_count(), 0);
  for (NodeId g : eng_.config_.channel.partitions[index].group) in_group[g] = 1;
  std::vector<std::pair<NodeId, NodeId>>& cut = partition_cut_[index];
  cut.clear();
  for (const auto& [a, b] : net.topology().edges())
    if (in_group[a] != in_group[b]) cut.emplace_back(a, b);
  for (const auto& [a, b] : cut) {
    net.remove_link(a, b);
    if (eng_.trace_ != nullptr) eng_.trace_->on_link_event(tick_, a, b, false);
  }
  eng_.links_.sync(net.topology());
  activate_endpoints(cut);
}

void EventScheduler::partition_up(std::size_t index) {
  Network& net = eng_.net_;
  std::vector<std::pair<NodeId, NodeId>> healed;
  for (const auto& [a, b] : partition_cut_[index]) {
    // A link another fault already restored (or re-cut) stays as is.
    if (net.topology().has_edge(a, b)) continue;
    net.add_link(a, b);
    healed.emplace_back(a, b);
    if (eng_.trace_ != nullptr) eng_.trace_->on_link_event(tick_, a, b, true);
  }
  partition_cut_[index].clear();
  eng_.links_.sync(net.topology());
  activate_endpoints(healed);
}

RunStats EventScheduler::run(Stage max_stages) {
  (void)max_stages;  // the event scheduler's cap is message-count based
  const RunStats before = eng_.stats_;
  eng_.bootstrap_agents();
  eng_.links_.sync(eng_.net_.topology());
  if (!faults_scheduled_) {
    schedule_faults();
    faults_scheduled_ = true;
  }
  // Kick every node once (covers both cold start and post-event restarts).
  kick_all();

  eng_.stats_.converged = true;
  while (!queue_.empty()) {
    if (eng_.stats_.messages > eng_.config_.max_messages) {
      eng_.stats_.converged = false;
      break;
    }
    Event ev = queue_.top();
    queue_.pop();
    now_ = std::max(now_, ev.time);
    ++tick_;
    switch (ev.kind) {
      case Event::Kind::kDeliver: {
        // Deliveries are session-stamped: if the link vanished, or flapped
        // and came back (new epoch = new TCP session), the in-flight
        // message died with the old session.
        const std::size_t slot = eng_.links_.slot(ev.peer, ev.node);
        if (slot == Engine::LinkLedger::npos ||
            eng_.links_.epoch[slot] != ev.session) {
          ++eng_.stats_.lost_messages;
          if (eng_.trace_ != nullptr)
            eng_.trace_->on_drop(tick_, ev.peer, ev.node);
          break;
        }
        eng_.net_.agent(ev.node).receive(ev.msg);
        activate(ev.node);
        break;
      }
      case Event::Kind::kPoll:
        poll_scheduled_[ev.node] = 0;
        activate(ev.node);
        break;
      case Event::Kind::kLinkDown:
        link_down(ev.node, ev.peer);
        break;
      case Event::Kind::kLinkUp:
        link_up(ev.node, ev.peer);
        break;
      case Event::Kind::kPartitionDown:
        partition_down(ev.index);
        break;
      case Event::Kind::kPartitionUp:
        partition_up(ev.index);
        break;
    }
  }
  eng_.stats_.end_time = now_;
  if (eng_.trace_ != nullptr && eng_.stats_.converged)
    eng_.trace_->on_quiescent(tick_);

  RunStats segment = eng_.stats_;
  segment.messages -= before.messages;
  segment.traffic -= before.traffic;
  segment.lost_messages -= before.lost_messages;
  return segment;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(Network& net, EngineConfig config)
    : net_(net), config_(config) {
  config_.threads = std::max(1u, config_.threads);
  const ChannelConfig& ch = config_.channel;
  if (config_.scheduler == SchedulerKind::kStage) {
    // The stage scheduler is the paper's ideal lockstep model: faults are
    // a property of asynchronous channels, so they require kEvent.
    FPSS_EXPECTS(ch.fault_free());
  } else {
    FPSS_EXPECTS(ch.min_delay > 0 && ch.max_delay >= ch.min_delay);
    FPSS_EXPECTS(ch.loss >= 0 && ch.loss < 1);
    FPSS_EXPECTS(ch.rto >= 0);
    FPSS_EXPECTS(ch.pareto_alpha > 0);
    for (const LinkFlap& flap : ch.flaps) {
      FPSS_EXPECTS(net_.topology().contains(flap.u) &&
                   net_.topology().contains(flap.v) && flap.u != flap.v);
      FPSS_EXPECTS(flap.down_time >= 0);
    }
    for (const PartitionEvent& part : ch.partitions) {
      FPSS_EXPECTS(part.down_time >= 0);
      for (NodeId g : part.group) FPSS_EXPECTS(net_.topology().contains(g));
    }
  }
  if (config_.threads > 1)
    pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  if (config_.scheduler == SchedulerKind::kStage)
    scheduler_ = std::make_unique<StageScheduler>(*this);
  else
    scheduler_ = std::make_unique<EventScheduler>(*this);
}

Engine::Engine(Network& net, unsigned threads)
    : Engine(net, EngineConfig::stage(threads)) {}

Engine::~Engine() = default;

RunStats Engine::run() { return run(config_.max_stages); }

RunStats Engine::run(Stage max_stages) {
  const RunStats segment = scheduler_->run(max_stages);
  if (segment.converged) ++converged_epochs_;
  return segment;
}

double Engine::now() const { return scheduler_->now(); }

util::ThreadPool* Engine::ensure_pool(unsigned width) {
  if (width > 1 && (pool_ == nullptr || pool_->width() < width))
    pool_ = std::make_unique<util::ThreadPool>(width);
  return pool_.get();
}

void Engine::bootstrap_agents() {
  if (bootstrapped_) return;
  const std::size_t n = net_.node_count();
  auto boot = [&](std::size_t v) {
    net_.agent(static_cast<NodeId>(v)).bootstrap();
  };
  if (pool_ != nullptr && n > 1) {
    pool_->parallel_for(n, boot);
  } else {
    for (std::size_t v = 0; v < n; ++v) boot(v);
  }
  bootstrapped_ = true;
}

}  // namespace fpss::bgp
