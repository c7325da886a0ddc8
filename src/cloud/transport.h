// Byte-level transport for the framework protocol (DESIGN.md §10).
//
// Every artefact a CloudSystem entity sends — keys, ciphertexts, stored
// files, update keys — travels through the transport as serialized bytes:
// the sender serializes, the transport frames (sequence number +
// checksum) and delivers, the receiver verifies and deserializes.
// Nothing crosses an entity boundary by reference anymore, so the
// protocol can be exercised against dropped, duplicated, corrupted and
// delayed messages.
//
// Fault injection is deterministic: a FaultPlan derives one Drbg stream
// per directed channel from a single seed, so a failing run reproduces
// byte-identically from its seed, independent of how other channels
// interleave. ReliableLink adds capped exponential backoff with a
// deadline on the transport's virtual clock, and request-id
// deduplication at the receiver so a redelivered or retried request is
// applied exactly once.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "cloud/meter.h"
#include "common/errors.h"
#include "common/wire.h"
#include "crypto/drbg.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {

// ----------------------------------------------------------- Frames --

/// A decoded transport frame. The wire form is
///   u8 tag (0x7A) | str from | str to | u64 request_id | u64 seq |
///   u8 flags | [u64 trace_id | u64 parent_span_id | str origin_node] |
///   var_bytes payload | raw[4] checksum
/// where flags bit 0 says whether the optional trace-context triple is
/// present (all other flag bits must be zero), and the checksum is the
/// first 4 bytes of SHA-256 over everything before it — the trace
/// header is inside the checksummed body, so a flipped trace byte is a
/// kChecksum fault like any other corruption. decode_frame verifies
/// the checksum before parsing, so any in-flight corruption surfaces
/// as TransportError(kChecksum).
///
/// The trace triple (DESIGN.md §16) carries the sender's current span
/// context across the wire: the receiving node rehydrates it as the
/// parent of a scoped "transport.recv" span, so one revocation epoch's
/// coordinator fan-out, replica stage/commit, quorum reads and
/// recovery rounds form a single cross-node span tree.
struct Frame {
  std::string from;
  std::string to;
  uint64_t request_id = 0;  ///< sender-unique logical request id
  uint64_t seq = 0;         ///< per-channel transmission counter
  uint64_t trace_id = 0;        ///< propagated trace (0 = untraced)
  uint64_t parent_span_id = 0;  ///< sender's span at send time
  std::string origin_node;      ///< where the trace context was captured
  Bytes payload;

  bool has_trace() const { return parent_span_id != 0; }
};

Bytes encode_frame(const Frame& f);
Frame decode_frame(ByteView wire);  ///< throws TransportError

// -------------------------------------------------------- FaultPlan --

/// Per-channel fault probabilities. All probabilities are independent
/// per transmission; a frame can be both delayed and dropped.
struct FaultSpec {
  double drop = 0.0;       ///< P(frame lost before delivery)
  double duplicate = 0.0;  ///< P(frame delivered twice)
  double corrupt = 0.0;    ///< P(one frame byte flipped in flight)
  double ack_loss = 0.0;   ///< P(delivered, but the sender sees failure)
  double delay = 0.0;      ///< P(frame held up delay_ms on the clock)
  uint64_t delay_ms = 25;  ///< latency added when a delay fires

  bool fault_free() const {
    return drop == 0 && duplicate == 0 && corrupt == 0 && ack_loss == 0 && delay == 0;
  }
};

/// Deterministic fault schedule, reproducible from a seed. Each directed
/// channel gets its own Drbg stream (derived from seed + channel name),
/// so the decisions on one channel do not depend on traffic elsewhere.
/// On top of the probabilistic spec, fail_next() scripts "fail the next
/// N transmissions on this channel, then succeed" — the shape most
/// outage tests want.
class FaultPlan {
 public:
  /// Everything the plan injected, for reconciling against the
  /// ChannelMeter: every injected fault must be accounted for.
  struct Injected {
    uint64_t drops = 0;
    uint64_t duplicates = 0;
    uint64_t corruptions = 0;
    uint64_t ack_losses = 0;
    uint64_t delays = 0;
    uint64_t script_failures = 0;
    uint64_t total() const {
      return drops + duplicates + corruptions + ack_losses + delays + script_failures;
    }
  };

  /// What happens to one transmission.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool ack_loss = false;
    bool script_failure = false;
    uint64_t delay_ms = 0;
    size_t corrupt_offset = 0;  ///< which frame byte to flip
    uint8_t corrupt_xor = 0;    ///< nonzero xor mask for that byte
  };

  FaultPlan() = default;               ///< fault-free, no randomness
  explicit FaultPlan(uint64_t seed);

  /// Spec for channels without a channel-specific override.
  void set_default(const FaultSpec& spec) { default_spec_ = spec; }
  void set_channel(const std::string& from, const std::string& to,
                   const FaultSpec& spec);
  /// Script: the next `n` transmissions from->to fail outright.
  void fail_next(const std::string& from, const std::string& to, uint32_t n);

  Decision decide(const std::string& from, const std::string& to, size_t frame_size);
  const Injected& injected() const { return injected_; }

 private:
  const FaultSpec& spec_for(const std::string& from, const std::string& to) const;
  crypto::Drbg& channel_rng(const std::string& from, const std::string& to);

  bool seeded_ = false;
  uint64_t seed_ = 0;
  FaultSpec default_spec_;
  std::map<std::pair<std::string, std::string>, FaultSpec> channel_specs_;
  std::map<std::pair<std::string, std::string>, uint32_t> scripts_;
  std::map<std::pair<std::string, std::string>, crypto::Drbg> rngs_;
  Injected injected_;
};

// ------------------------------------------------ LoopbackTransport --

/// In-process transport: frames are encoded, run through the FaultPlan,
/// and decoded on the spot. The real serialize -> frame -> verify ->
/// deserialize path is exercised even though no socket is involved.
///
/// Thread-safety: deliver() may be called concurrently (the fault plan
/// and sequence counters are mutex-guarded, the clock is atomic, and
/// the meter synchronizes itself); no lock is held while the receiver
/// sink runs, so sinks may nest further sends. faults() hands out the
/// plan unsynchronized — configure it before concurrent traffic starts.
class LoopbackTransport {
 public:
  explicit LoopbackTransport(FaultPlan plan = FaultPlan());

  /// Called once per frame copy that arrives intact — zero times for a
  /// dropped frame, twice for a duplicated one. Receivers must dedup by
  /// request id: in the ack-loss case the sink has already run when the
  /// sender sees the failure and retries.
  using Sink = std::function<void(uint64_t request_id, ByteView payload)>;

  /// One transmission attempt from->to. Throws TransportError when the
  /// frame is lost (kLost), fails its checksum (kChecksum), or its
  /// acknowledgement is lost after delivery (kLost).
  void deliver(const std::string& from, const std::string& to, uint64_t request_id,
               ByteView payload, const Sink& sink);

  /// Per-channel byte and fault accounting lives inside the transport —
  /// it is the only layer that sees real wire bytes.
  ChannelMeter& meter() { return meter_; }
  const ChannelMeter& meter() const { return meter_; }

  /// Virtual clock (milliseconds). Delay faults and retry backoff
  /// advance it; nothing ever sleeps, so chaos runs are fast and
  /// deterministic.
  uint64_t now_ms() const { return now_ms_.load(std::memory_order_relaxed); }
  void advance_clock(uint64_t ms) { now_ms_.fetch_add(ms, std::memory_order_relaxed); }

  /// The `instance` label of this transport's series, shared by every
  /// component stacked on it (link, queues, cluster, nodes).
  const std::string& instance() const { return instance_; }

  FaultPlan& faults() { return plan_; }
  const FaultPlan& faults() const { return plan_; }

 private:
  const std::string instance_ = telemetry::next_instance();
  ChannelMeter meter_{instance_};
  std::mutex mu_;  // guards plan_ decisions + seq_ allocation
  FaultPlan plan_;
  std::map<std::pair<std::string, std::string>, uint64_t> seq_;
  std::atomic<uint64_t> now_ms_{0};
};

// ----------------------------------------------------- ReliableLink --

/// Retry/backoff parameters for one logical send. Backoff is capped
/// exponential: base, 2*base, 4*base, ... up to max, charged to the
/// transport's virtual clock; the deadline bounds the whole send.
struct RetryPolicy {
  uint32_t max_attempts = 4;
  uint64_t base_backoff_ms = 10;
  uint64_t max_backoff_ms = 500;
  uint64_t deadline_ms = 4000;
};

/// Reliable unicast over an unreliable transport: retries with capped
/// exponential backoff until the policy is exhausted, and guarantees the
/// receiver-side apply runs at most once per (origin, request id) even
/// when frames are duplicated or an applied request is retried after an
/// ack loss (idempotent request handling). Dedup keys are scoped by the
/// origin because request-id counters are per sender process: two nodes
/// can legitimately allocate the same id, while one origin retrying a
/// request against a *different* destination (a store re-routed to a
/// new primary after failover) must still be a no-op. Suppressed
/// duplicate copies are counted as redeliveries on the channel.
class ReliableLink {
 public:
  explicit ReliableLink(LoopbackTransport& transport, RetryPolicy policy = RetryPolicy());

  /// Hands out sender-unique request ids (so a parked delivery can be
  /// replayed later under its original id).
  uint64_t allocate_request_id() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  using Apply = std::function<void(ByteView payload)>;

  /// Sends `payload` under a fresh request id. `apply` runs exactly once
  /// on success. Throws TransportError(kExhausted) when every attempt
  /// failed; non-transport exceptions from `apply` propagate unretried.
  void send(const std::string& from, const std::string& to, ByteView payload,
            const Apply& apply);

  /// Same, under a caller-held request id: if an earlier attempt already
  /// applied this id (ack lost), the replay is a no-op that still counts
  /// as success.
  void send_as(uint64_t request_id, const std::string& from, const std::string& to,
               ByteView payload, const Apply& apply);

  const RetryPolicy& policy() const { return policy_; }

  const std::string& instance() const { return transport_.instance(); }

  // Reads of the link's series and the mutex-guarded dedup set: safe
  // from any thread, like concurrent sends.
  uint64_t sends_ok() const { return m_.sends_ok->value(); }
  uint64_t sends_failed() const { return m_.sends_failed->value(); }
  uint64_t retries() const { return transport_.meter().totals().retries; }
  uint64_t applied_requests() const {
    std::lock_guard<std::mutex> lock(applied_mu_);
    return applied_.size();
  }

 private:
  LoopbackTransport& transport_;
  RetryPolicy policy_;
  std::atomic<uint64_t> next_request_id_{0};
  mutable std::mutex applied_mu_;  // never held across apply/sink calls
  std::set<std::pair<std::string, uint64_t>> applied_;  // (origin, request id)
  /// maabe_transport_sends_{ok,failed}_total{instance}: one add per send;
  /// the per-attempt events are the transport meter's.
  struct {
    telemetry::CounterSeries sends_ok, sends_failed;
  } m_;
};

}  // namespace maabe::cloud
