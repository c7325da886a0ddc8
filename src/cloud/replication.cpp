#include "cloud/replication.h"

#include "telemetry/flight_recorder.h"

namespace maabe::cloud {

// ---------------------------------------------------- wire formats --

namespace {
constexpr uint8_t kReplicationTag = 0x52;  // 'R'
constexpr uint8_t kFetchReplyTag = 0x51;   // 'Q'
}  // namespace

Bytes encode_replication_op(const ReplicationOp& op) {
  Writer w;
  w.u8(kReplicationTag);
  w.str(op.file_id);
  w.u64(op.version);
  w.var_bytes(op.hash);
  w.var_bytes(op.wire);
  return w.take();
}

ReplicationOp decode_replication_op(ByteView data) {
  Reader r(data);
  if (r.u8() != kReplicationTag)
    throw WireError("replication: bad op tag");
  ReplicationOp op;
  op.file_id = r.str();
  op.version = r.u64();
  op.hash = r.var_bytes();
  op.wire = r.var_bytes();
  r.expect_done();
  return op;
}

Bytes encode_fetch_reply(const FetchReply& reply) {
  Writer w;
  w.u8(kFetchReplyTag);
  w.u8(reply.found ? 1 : 0);
  w.u64(reply.version);
  w.var_bytes(reply.hash);
  w.var_bytes(reply.wire);
  return w.take();
}

FetchReply decode_fetch_reply(ByteView data) {
  Reader r(data);
  if (r.u8() != kFetchReplyTag)
    throw WireError("replication: bad fetch-reply tag");
  FetchReply reply;
  reply.found = r.u8() != 0;
  reply.version = r.u64();
  reply.hash = r.var_bytes();
  reply.wire = r.var_bytes();
  r.expect_done();
  return reply;
}

// ----------------------------------------------------- DurableLink --

DurableLink::DurableLink(ReliableLink& link)
    : link_(link),
      rejected_(telemetry::MetricsRegistry::global().counter(
          "maabe_transport_parked_rejected_total", {{"instance", link.instance()}})) {}

void DurableLink::set_pending_cap(size_t cap) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  pending_cap_ = cap == 0 ? kDefaultPendingCap : cap;
}

size_t DurableLink::pending_cap() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return pending_cap_;
}

bool DurableLink::send_or_park(const std::string& from, const std::string& to,
                               Bytes payload, Apply apply, std::string label) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Order must be preserved per destination: never jump a parked queue.
  flush_queue(to);
  auto& queue = pending_[to];
  if (queue.size() >= pending_cap_) {
    rejected_->inc();
    if (telemetry::FlightRegistry::armed())
      telemetry::FlightRegistry::global().record_event(
          to, telemetry::FlightEntry::Kind::kOverloadShed, "parked_rejected",
          "label=" + label + " cap=" + std::to_string(pending_cap_));
    throw TransportError(TransportError::Kind::kOverloaded,
                         "durable queue for '" + to + "' at cap (" +
                             std::to_string(pending_cap_) + "): rejecting '" +
                             label + "'");
  }
  if (!queue.empty()) {
    queue.push_back({link_.allocate_request_id(), from, std::move(payload),
                     std::move(apply), std::move(label), telemetry::Tracer::current()});
    return false;
  }
  const uint64_t rid = link_.allocate_request_id();
  try {
    link_.send_as(rid, from, to, payload, apply);
  } catch (const TransportError&) {
    queue.push_back({rid, from, std::move(payload), std::move(apply), std::move(label),
                     telemetry::Tracer::current()});
    return false;
  }
  pending_.erase(to);  // drop the empty deque we may have created
  return true;
}

void DurableLink::flush_queue(const std::string& to) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = pending_.find(to);
  if (it == pending_.end()) return;
  auto& queue = it->second;
  while (!queue.empty()) {
    Pending& head = queue.front();
    // Replay under the context captured at park time: the frame on the
    // wire carries the originating trace, and an originally-untraced
    // op stays detached from whatever operation triggered this flush.
    telemetry::ContextOverride restore_ctx(head.ctx);
    telemetry::Span replay =
        telemetry::Tracer::global().start_span("durable.replay");
    if (replay.active()) {
      replay.attr("to", to);
      replay.attr("label", head.label);
      replay.attr("node_id", head.from);
    }
    try {
      link_.send_as(head.request_id, head.from, to, head.payload, head.apply);
    } catch (const TransportError&) {
      if (replay.active()) replay.attr("outcome", "still_parked");
      return;  // keep order; retry on the next call
    }
    if (replay.active()) replay.attr("outcome", "delivered");
    queue.pop_front();
  }
  pending_.erase(it);
}

size_t DurableLink::flush_all() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<std::string> destinations;
  destinations.reserve(pending_.size());
  for (const auto& [to, queue] : pending_) destinations.push_back(to);
  for (const std::string& to : destinations) flush_queue(to);
  return pending_count();
}

size_t DurableLink::pending_count() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [to, queue] : pending_) n += queue.size();
  return n;
}

size_t DurableLink::pending_for(const std::string& to) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = pending_.find(to);
  return it == pending_.end() ? 0 : it->second.size();
}

std::map<std::string, size_t> DurableLink::pending_by_destination() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::map<std::string, size_t> out;
  for (const auto& [to, queue] : pending_) {
    if (!queue.empty()) out[to] = queue.size();
  }
  return out;
}

std::vector<std::string> DurableLink::pending_labels(const std::string& to) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<std::string> out;
  const auto it = pending_.find(to);
  if (it == pending_.end()) return out;
  out.reserve(it->second.size());
  for (const Pending& p : it->second) out.push_back(p.label);
  return out;
}

}  // namespace maabe::cloud
