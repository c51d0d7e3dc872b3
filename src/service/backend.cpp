#include "service/backend.h"

#include <chrono>

#include "util/clock.h"

namespace fpss::service {

std::vector<Reply> Backend::query(std::span<const Request> batch) const {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const RouteSnapshot> snap = snapshot();
  std::vector<Reply> replies;
  std::uint64_t age_ns = 0;
  if (snap == nullptr) {
    // Nothing served yet: every node is out of range of the (empty)
    // network this backend currently knows.
    Reply rejected;
    rejected.status = Status::kBadNode;
    replies.assign(batch.size(), rejected);
  } else {
    // One wall-clock reading per batch: every reply reports the same age,
    // and a remote server answering the same batch produces the same split
    // between "answer" fields and provenance.
    const std::uint64_t now_ns = util::wall_clock_ns();
    replies.reserve(batch.size());
    for (const Request& request : batch)
      replies.push_back(answer(*snap, request, now_ns));
    age_ns = util::age_from(snap->published_at_ns(), now_ns);
  }
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  counters_.add(&Counters::queries, batch.size());
  counters_.add(&Counters::batches);
  counters_.add(&Counters::total_ns, ns);
  counters_.raise(&Counters::max_batch_ns, ns);
  counters_.raise(&Counters::max_staleness_ns, age_ns);
  return replies;
}

}  // namespace fpss::service
