#include "service/backend.h"

#include "util/clock.h"

namespace fpss::service {

std::vector<Reply> answer_batch(const ShardedSnapshotStore& store,
                                std::span<const Request> batch,
                                util::LiveCounters<Counters>& counters) {
  const auto start = std::chrono::steady_clock::now();
  const ShardedSnapshotStore::View view = store.acquire();
  std::vector<Reply> replies;
  if (view.empty()) {
    // Nothing served yet: every node is out of range of the (empty)
    // network this backend currently knows.
    Reply rejected;
    rejected.status = Status::kBadNode;
    replies.assign(batch.size(), rejected);
    record_batch(counters, batch.size(), 0, start);
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
  record_batch(counters, batch.size(),
               util::age_from(snapshot.published_at_ns(), now_ns), start);
  return replies;
}

void record_batch(util::LiveCounters<Counters>& counters,
                  std::uint64_t queries, std::uint64_t age_ns,
                  std::chrono::steady_clock::time_point start) {
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  counters.add(&Counters::queries, queries);
  counters.add(&Counters::batches);
  counters.add(&Counters::total_ns, ns);
  counters.raise(&Counters::max_batch_ns, ns);
  counters.raise(&Counters::max_staleness_ns, age_ns);
}

}  // namespace fpss::service
