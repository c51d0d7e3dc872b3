#include "net/remote_backend.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace fpss::net {

namespace {

std::string describe(const ClientError& error) {
  std::string out = to_string(error.status);
  if (!error.message.empty()) {
    out += ": ";
    out += error.message;
  }
  return out;
}

}  // namespace

RemoteQueryBackend::RemoteQueryBackend(ClientConfig config)
    : data_(std::move(config)) {}

ClientError RemoteQueryBackend::connect() { return data_.connect(); }

service::QueryOutcome RemoteQueryBackend::query_batch(
    std::span<const service::Request> batch) {
  service::QueryOutcome outcome;
  if (const auto err = connect(); !err.ok()) {
    outcome.error = describe(err);
    return outcome;
  }
  auto result = data_.query(batch);
  if (!result.ok()) {
    outcome.error = describe(result.error);
    return outcome;
  }
  outcome.replies = std::move(result.replies);
  return outcome;
}

service::SubmitAck RemoteQueryBackend::submit_deltas(
    std::span<const service::Delta> deltas) {
  using Status = service::SubmitAck::Status;
  service::SubmitAck ack;
  ClientError err = connect();
  if (err.ok()) {
    const SubmitResult result = data_.submit_deltas(deltas);
    ack.accepted = result.accepted;
    ack.publish_count = result.publish_count;
    err = result.error;
  }
  if (err.ok()) return ack;
  ack.error = describe(err);
  ack.status = Status::kFailed;
  if (err.wire_status == WireStatus::kOverloaded) {
    ack.status = Status::kOverloaded;
  } else if (err.wire_status == WireStatus::kUpstreamDown) {
    ack.status = Status::kUnavailable;
  } else if (err.wire_status == WireStatus::kBadFrameType) {
    ack.status = Status::kReadOnly;  // the server refuses the frame type
  }
  return ack;
}

CountersResult RemoteQueryBackend::counters() {
  if (const auto err = connect(); !err.ok()) {
    CountersResult result;
    result.error = err;
    return result;
  }
  return data_.counters();
}

U64Result RemoteQueryBackend::drain() {
  if (const auto err = connect(); !err.ok()) {
    U64Result result;
    result.error = err;
    return result;
  }
  return data_.drain();
}

std::uint32_t RemoteQueryBackend::server_hop_count() const {
  return data_.server_hop_count();
}

std::uint64_t RemoteQueryBackend::wait_for_publish_beyond(std::uint64_t count,
                                                          int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint64_t seen = 0;
  for (;;) {
    // Rounded up, like next_slice_ms: the last park runs to the deadline.
    const long long left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
            .count();
    // A lost connection re-dials here; the deadline bounds the retries,
    // and connect() itself fails fast when the server is gone.
    if (!connect().ok()) break;
    const NotifyResult reply = data_.await_publish(
        {count, static_cast<std::uint32_t>(
                    std::clamp<long long>(left, 0, kMaxParkMs))});
    if (reply.ok()) seen = reply.notify.snapshot_version;
    if (seen > count || left <= 0) break;
  }
  return seen;
}

}  // namespace fpss::net
