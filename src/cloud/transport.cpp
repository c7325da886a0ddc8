#include "cloud/transport.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

namespace {

constexpr uint8_t kFrameTag = 0x7A;
constexpr size_t kChecksumSize = 4;

Bytes frame_checksum(ByteView framed_prefix) {
  Bytes digest = crypto::Sha256::digest(framed_prefix);
  digest.resize(kChecksumSize);
  return digest;
}

/// Uniform double in [0, 1) from 8 Drbg bytes (53-bit mantissa).
double uniform01(crypto::Drbg& rng) {
  const Bytes b = rng.bytes(8);
  uint64_t v = 0;
  for (uint8_t byte : b) v = (v << 8) | byte;
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

uint64_t uniform_u64(crypto::Drbg& rng) {
  const Bytes b = rng.bytes(8);
  uint64_t v = 0;
  for (uint8_t byte : b) v = (v << 8) | byte;
  return v;
}

}  // namespace

// ----------------------------------------------------------- Frames --

namespace {
constexpr uint8_t kFlagTrace = 0x01;
}  // namespace

Bytes encode_frame(const Frame& f) {
  Writer w;
  w.u8(kFrameTag);
  w.str(f.from);
  w.str(f.to);
  w.u64(f.request_id);
  w.u64(f.seq);
  if (f.has_trace()) {
    w.u8(kFlagTrace);
    w.u64(f.trace_id);
    w.u64(f.parent_span_id);
    w.str(f.origin_node);
  } else {
    w.u8(0);
  }
  w.var_bytes(f.payload);
  Bytes out = w.take();
  const Bytes sum = frame_checksum(out);
  out.insert(out.end(), sum.begin(), sum.end());
  return out;
}

Frame decode_frame(ByteView wire) {
  if (wire.size() < 1 + kChecksumSize)
    throw TransportError(TransportError::Kind::kMalformed,
                         "transport: frame shorter than header + checksum");
  const ByteView body(wire.data(), wire.size() - kChecksumSize);
  const ByteView sum(wire.data() + body.size(), kChecksumSize);
  const Bytes expect = frame_checksum(body);
  // The checksum covers every body byte, so any in-flight flip lands
  // here; constant-time comparison is unnecessary (integrity, not auth —
  // the sealed payloads carry their own MACs).
  if (!std::equal(expect.begin(), expect.end(), sum.begin(), sum.end()))
    throw TransportError(TransportError::Kind::kChecksum,
                         "transport: frame checksum mismatch");
  try {
    Reader r(body);
    if (r.u8() != kFrameTag)
      throw TransportError(TransportError::Kind::kMalformed,
                           "transport: bad frame tag");
    Frame f;
    f.from = r.str();
    f.to = r.str();
    f.request_id = r.u64();
    f.seq = r.u64();
    const uint8_t flags = r.u8();
    if ((flags & ~kFlagTrace) != 0)
      throw TransportError(TransportError::Kind::kMalformed,
                           "transport: unknown frame flags");
    if (flags & kFlagTrace) {
      f.trace_id = r.u64();
      f.parent_span_id = r.u64();
      f.origin_node = r.str();
      if (f.parent_span_id == 0)
        throw TransportError(TransportError::Kind::kMalformed,
                             "transport: trace flag set with null span id");
    }
    f.payload = r.var_bytes();
    r.expect_done();
    return f;
  } catch (const WireError& e) {
    throw TransportError(TransportError::Kind::kMalformed,
                         std::string("transport: malformed frame: ") + e.what());
  }
}

// -------------------------------------------------------- FaultPlan --

FaultPlan::FaultPlan(uint64_t seed) : seeded_(true), seed_(seed) {}

void FaultPlan::set_channel(const std::string& from, const std::string& to,
                            const FaultSpec& spec) {
  channel_specs_[{from, to}] = spec;
}

void FaultPlan::fail_next(const std::string& from, const std::string& to, uint32_t n) {
  scripts_[{from, to}] += n;
}

const FaultSpec& FaultPlan::spec_for(const std::string& from,
                                     const std::string& to) const {
  const auto it = channel_specs_.find({from, to});
  return it == channel_specs_.end() ? default_spec_ : it->second;
}

crypto::Drbg& FaultPlan::channel_rng(const std::string& from, const std::string& to) {
  const auto key = std::make_pair(from, to);
  auto it = rngs_.find(key);
  if (it == rngs_.end()) {
    const std::string label =
        "maabe/fault-plan/" + std::to_string(seed_) + "/" + from + ">" + to;
    it = rngs_.emplace(key, crypto::Drbg(std::string_view(label))).first;
  }
  return it->second;
}

FaultPlan::Decision FaultPlan::decide(const std::string& from, const std::string& to,
                                      size_t frame_size) {
  Decision d;
  // Scripts fire before (and independent of) the probabilistic spec.
  const auto script = scripts_.find({from, to});
  if (script != scripts_.end() && script->second > 0) {
    --script->second;
    d.script_failure = true;
    ++injected_.script_failures;
    return d;
  }
  const FaultSpec& spec = spec_for(from, to);
  if (!seeded_ || spec.fault_free()) return d;

  // Always draw every field in a fixed order, so the channel stream is a
  // pure function of (seed, channel, transmission index).
  crypto::Drbg& rng = channel_rng(from, to);
  const double p_drop = uniform01(rng);
  const double p_dup = uniform01(rng);
  const double p_corrupt = uniform01(rng);
  const double p_ack = uniform01(rng);
  const double p_delay = uniform01(rng);
  const uint64_t corrupt_pos = uniform_u64(rng);
  const uint8_t corrupt_mask = rng.bytes(1)[0];

  d.drop = p_drop < spec.drop;
  d.duplicate = p_dup < spec.duplicate;
  d.corrupt = p_corrupt < spec.corrupt;
  d.ack_loss = p_ack < spec.ack_loss;
  if (p_delay < spec.delay) d.delay_ms = spec.delay_ms;
  d.corrupt_offset = frame_size == 0 ? 0 : static_cast<size_t>(corrupt_pos % frame_size);
  d.corrupt_xor = static_cast<uint8_t>(corrupt_mask | 0x01);  // never a no-op flip

  if (d.delay_ms > 0) ++injected_.delays;
  if (d.drop) {
    // A dropped frame never reaches the receiver; the other outcomes
    // are moot (but their randomness was consumed, keeping the stream
    // aligned across spec changes).
    d.duplicate = d.corrupt = d.ack_loss = false;
    ++injected_.drops;
    return d;
  }
  if (d.corrupt) {
    d.duplicate = d.ack_loss = false;
    ++injected_.corruptions;
    return d;
  }
  if (d.duplicate) ++injected_.duplicates;
  if (d.ack_loss) ++injected_.ack_losses;
  return d;
}

// ------------------------------------------------ LoopbackTransport --

LoopbackTransport::LoopbackTransport(FaultPlan plan) : plan_(std::move(plan)) {}

void LoopbackTransport::deliver(const std::string& from, const std::string& to,
                                uint64_t request_id, ByteView payload,
                                const Sink& sink) {
  // One span per transmission attempt, a child of the sender's current
  // span (the scoped "transport.send" for direct sends, the replay span
  // for parked frames — which preserves the ORIGINATING context). Ends
  // (and emits) even when the attempt throws below, with the outcome
  // attribute already recorded — this is how a traced revocation epoch
  // shows every injected fault.
  const telemetry::SpanContext ambient = telemetry::Tracer::current();
  telemetry::Span span = telemetry::Tracer::global().start_span("transport.frame");

  Frame frame;
  frame.from = from;
  frame.to = to;
  frame.request_id = request_id;
  // Trace-context injection: the frame span's own context rides the
  // frame, so the receiving side's transport.recv nests inside this
  // attempt instead of overlapping it as a sibling. An untraced send
  // stays untraced on the wire.
  if (ambient.valid()) {
    const telemetry::SpanContext ctx = span.active() ? span.context() : ambient;
    frame.trace_id = ctx.trace_id;
    frame.parent_span_id = ctx.span_id;
    frame.origin_node = from;
  }
  frame.payload.assign(payload.begin(), payload.end());
  FaultPlan::Decision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    frame.seq = ++seq_[{from, to}];
  }
  Bytes wire = encode_frame(frame);
  {
    std::lock_guard<std::mutex> lock(mu_);
    d = plan_.decide(from, to, wire.size());
  }

  if (span.active()) {
    span.attr("from", from);
    span.attr("to", to);
    span.attr("node_id", from);
    span.attr("request_id", request_id);
    span.attr("seq", frame.seq);
    span.attr("frame_bytes", static_cast<uint64_t>(wire.size()));
  }

  // One meter record per event. A recorder holds the meter lock only
  // for its own update, so the sink (which nests further sends) never
  // runs under it.
  meter().frame(from, to, wire.size(), payload.size());

  // Fault injections land in the destination node's flight recorder
  // (when armed): a failing chaos run dumps exactly which faults hit
  // the node under suspicion.
  const auto flight_fault = [&](const char* what) {
    if (telemetry::FlightRegistry::armed())
      telemetry::FlightRegistry::global().record_event(
          to, telemetry::FlightEntry::Kind::kFaultInjected, what,
          "from=" + from + " request_id=" + std::to_string(request_id));
  };

  if (d.script_failure) {
    meter().script_failure(from, to);
    span.attr("outcome", "scripted_failure");
    flight_fault("scripted_failure");
    throw TransportError(TransportError::Kind::kLost,
                         "transport: scripted failure on " + from + " -> " + to);
  }
  if (d.delay_ms > 0) {
    meter().delay(from, to, d.delay_ms);
    now_ms_.fetch_add(d.delay_ms, std::memory_order_relaxed);
    span.attr("delay_ms", d.delay_ms);
    flight_fault("delay");
  }
  if (d.drop) {
    meter().drop(from, to);
    span.attr("outcome", "dropped");
    flight_fault("drop");
    throw TransportError(TransportError::Kind::kLost,
                         "transport: frame lost on " + from + " -> " + to);
  }
  if (d.corrupt) wire[d.corrupt_offset] ^= d.corrupt_xor;

  // Receiver side: verify and parse; a corrupted frame dies here.
  Frame received;
  try {
    received = decode_frame(wire);
  } catch (const TransportError&) {
    meter().corruption(from, to);
    span.attr("outcome", "corrupted");
    flight_fault("corrupt");
    throw;
  }
  // Trace rehydration: continue the sender's trace on the receiving
  // side. The scoped recv span becomes the thread's current span, so
  // everything the sink does on this node nests under the propagated
  // wire context — this is what links a coordinator's epoch to its
  // replicas' stage/commit work into one tree.
  telemetry::Span recv;
  if (received.has_trace()) {
    recv = telemetry::Tracer::global().start_span(
        "transport.recv", {received.trace_id, received.parent_span_id});
    if (recv.active()) {
      recv.attr("node_id", to);
      recv.attr("origin", received.origin_node);
      recv.attr("request_id", received.request_id);
    }
  }
  // Delivery is counted at hand-off, before the sink runs: the intact
  // copy has reached the receiver at that point, and counting first
  // keeps bytes_delivered >= bytes_accepted at every instant (the sink
  // is what credits bytes_accepted).
  meter().delivery(from, to, received.payload.size());
  sink(received.request_id, received.payload);
  if (d.duplicate) {
    meter().duplicate(from, to, wire.size(), received.payload.size());
    flight_fault("duplicate");
    sink(received.request_id, received.payload);
  }
  if (d.ack_loss) {
    meter().ack_loss(from, to);
    span.attr("outcome", "ack_lost");
    flight_fault("ack_loss");
    throw TransportError(TransportError::Kind::kLost,
                         "transport: acknowledgement lost on " + from + " -> " + to);
  }
  span.attr("outcome", "delivered");
}

// ----------------------------------------------------- ReliableLink --

ReliableLink::ReliableLink(LoopbackTransport& transport, RetryPolicy policy)
    : transport_(transport), policy_(policy) {
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Labels l{{"instance", instance()}};
  m_ = {reg.counter("maabe_transport_sends_ok_total", l),
        reg.counter("maabe_transport_sends_failed_total", l)};
}

void ReliableLink::send(const std::string& from, const std::string& to,
                        ByteView payload, const Apply& apply) {
  send_as(allocate_request_id(), from, to, payload, apply);
}

void ReliableLink::send_as(uint64_t request_id, const std::string& from,
                           const std::string& to, ByteView payload,
                           const Apply& apply) {
  // The logical-send span parents every transmission-attempt span the
  // transport emits below, so one trace links a send to its retries.
  telemetry::Span span = telemetry::Tracer::global().start_span("transport.send");
  if (span.active()) {
    span.attr("from", from);
    span.attr("to", to);
    span.attr("node_id", from);
    span.attr("request_id", request_id);
  }
  const uint64_t deadline = transport_.now_ms() + policy_.deadline_ms;
  std::string last_error = "no attempt made";
  uint32_t attempt = 0;
  for (; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      const uint64_t backoff = std::min(
          policy_.base_backoff_ms << (attempt - 1), policy_.max_backoff_ms);
      transport_.advance_clock(backoff);
      transport_.meter().retry(from, to);
      if (transport_.now_ms() > deadline) break;
    }
    try {
      transport_.deliver(
          from, to, request_id, payload, [&](uint64_t rid, ByteView delivered) {
            // Check/insert scopes are split around apply(): the dedup
            // mutex must not be held while apply runs, because applies
            // nest further sends back through this link. A request id
            // is only in flight once per logical send, so the split is
            // not a race window. Keys are (origin, request id): callers
            // may reuse an id under another origin, and a retry of an
            // applied request must dedup even when failover re-routes
            // it elsewhere.
            const auto key = std::make_pair(from, rid);
            bool fresh;
            {
              std::lock_guard<std::mutex> lock(applied_mu_);
              const auto acked = last_acked_.find(from);
              fresh = !unacked_.contains(key) &&
                      (acked == last_acked_.end() || acked->second != rid);
            }
            if (!fresh) {
              transport_.meter().redelivery(from, to);
              // A dedup'd redelivery is an event leaf in the ambient
              // trace (child of the rehydrated recv span), never a new
              // subtree: the duplicate's work was already recorded the
              // first time around.
              telemetry::Span dup = telemetry::Tracer::global().start_span(
                  "transport.dropped_duplicate");
              if (dup.active()) {
                dup.attr("from", from);
                dup.attr("to", to);
                dup.attr("node_id", to);
                dup.attr("request_id", rid);
              }
              return;
            }
            apply(delivered);
            transport_.meter().accepted(from, to, delivered.size());
            std::lock_guard<std::mutex> lock(applied_mu_);
            unacked_.insert(key);
            ++applied_count_;
          });
      // Acknowledged: the sender never replays this id again except as
      // the origin's newest, so only that id is remembered.
      {
        std::lock_guard<std::mutex> lock(applied_mu_);
        unacked_.erase({from, request_id});
        last_acked_[from] = request_id;
      }
      m_.sends_ok->inc();
      if (span.active()) {
        span.attr("attempts", attempt + 1);
        span.attr("outcome", "ok");
      }
      return;
    } catch (const TransportError& e) {
      last_error = e.what();
    }
  }
  m_.sends_failed->inc();
  if (span.active()) {
    span.attr("attempts", attempt);
    span.attr("outcome", "exhausted");
  }
  throw TransportError(TransportError::Kind::kExhausted,
                       "transport: giving up on " + from + " -> " + to +
                           " after retries (last: " + last_error + ")");
}

}  // namespace maabe::cloud
