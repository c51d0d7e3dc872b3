#include "service/backend.h"

#include "util/clock.h"

namespace fpss::service {

namespace {

void bump_max(std::atomic<std::uint64_t>& gauge, std::uint64_t value) {
  std::uint64_t seen = gauge.load(std::memory_order_relaxed);
  while (value > seen &&
         !gauge.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::vector<Reply> ReadPath::query(const ShardedSnapshotStore* store,
                                   std::span<const Request> batch) const {
  const auto start = Clock::now();
  const ShardedSnapshotStore::View view =
      store == nullptr ? ShardedSnapshotStore::View{} : store->acquire();
  std::vector<Reply> replies;
  if (view.empty()) {
    // Nothing served yet: every node is out of range of the (empty)
    // network this backend currently knows.
    Reply rejected;
    rejected.status = Status::kBadNode;
    replies.assign(batch.size(), rejected);
    record(batch.size(), 0, start);
    return replies;
  }
  // One wall-clock reading per batch: every reply reports the same age,
  // and a remote server answering the same batch produces the same split
  // between "answer" fields and provenance.
  const std::uint64_t now_ns = util::wall_clock_ns();
  const RouteSnapshot& snapshot = *view.newest;
  replies.reserve(batch.size());
  for (const Request& request : batch)
    replies.push_back(answer(snapshot, request, now_ns));
  record(batch.size(), util::age_from(snapshot.published_at_ns(), now_ns),
         start);
  return replies;
}

void ReadPath::record(std::uint64_t queries, std::uint64_t age_ns,
                      Clock::time_point start) const {
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  queries_.fetch_add(queries, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  bump_max(max_batch_ns_, ns);
  bump_max(max_staleness_ns_, age_ns);
}

void ReadPath::fill(Counters& out) const {
  out.queries = queries_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.total_ns = total_ns_.load(std::memory_order_relaxed);
  out.max_batch_ns = max_batch_ns_.load(std::memory_order_relaxed);
  out.max_staleness_ns = max_staleness_ns_.load(std::memory_order_relaxed);
}

}  // namespace fpss::service
