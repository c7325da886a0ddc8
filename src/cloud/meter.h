// Byte and crypto-op accounting.
//
// The framework layer (system.h) routes every serialized artefact
// through a ChannelMeter, which is how the communication-cost benchmark
// (paper Table IV) measures real wire bytes per channel, and how the
// storage benchmark (Table III) attributes at-rest bytes to entities.
//
// OpMeter is the group-operation analogue: it attributes
// engine::CryptoEngine op counters (pairings, exponentiations) and batch
// wall time to named phases (Encrypt, Decrypt, ReEncrypt, ...), which is
// how the benches report ops-per-phase next to milliseconds.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "engine/engine.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {

/// Per-directed-channel counters. payload_bytes keeps the Table IV
/// semantics (application artefact bytes); everything else is transport
/// accounting: frames/frame_bytes count every transmission attempt
/// (including dropped and duplicated copies), the fault counters mirror
/// what the FaultPlan injected on the channel, retries counts sender
/// re-attempts after a TransportError, and redeliveries counts duplicate
/// copies suppressed by receiver-side request-id dedup.
struct ChannelStats {
  uint64_t payload_bytes = 0;  ///< artefact bytes handed to the transport
  uint64_t frame_bytes = 0;    ///< on-the-wire bytes incl. header + checksum
  uint64_t frames = 0;         ///< transmission attempts
  uint64_t deliveries = 0;     ///< frame copies that arrived intact
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t corruptions = 0;
  uint64_t ack_losses = 0;
  uint64_t delays = 0;
  uint64_t delay_ms = 0;          ///< total injected latency
  uint64_t script_failures = 0;   ///< fail_next() script hits
  uint64_t retries = 0;
  uint64_t redeliveries = 0;
  /// Payload bytes of every intact frame copy handed to the receiver —
  /// duplicate and redelivered copies count each time they arrive.
  uint64_t bytes_delivered = 0;
  /// Payload bytes the receiver actually APPLIED (goodput): request
  /// payloads that passed request-id dedup. Redelivered copies of an
  /// already-applied request count toward bytes_delivered but never
  /// toward bytes_accepted; on a fault-free channel the two are equal.
  uint64_t bytes_accepted = 0;

  uint64_t faults() const {
    return drops + duplicates + corruptions + ack_losses + delays + script_failures;
  }
  ChannelStats& operator+=(const ChannelStats& o);
};

/// The transport's only ledger: one row per directed channel, plus the
/// transport's maabe_transport_{frames,frame_bytes,deliveries,faults,
/// retries,redeliveries}_total{instance} series. Each recorder is one
/// event: it updates the row and its series together, under the meter
/// lock, so the sum of the rows equals the series at quiescence.
///
/// Thread-safe: concurrent senders and health()/telemetry readers see
/// coherent per-channel rows. Recorders never call out, so they are
/// safe from inside delivery sinks, which nest sends.
class ChannelMeter {
 public:
  explicit ChannelMeter(const std::string& instance);

  /// A transmission attempt of a `frame_bytes` frame carrying
  /// `payload_bytes` of artefact.
  void frame(const std::string& from, const std::string& to, size_t frame_bytes,
             size_t payload_bytes);
  /// An intact copy handed to the receiver.
  void delivery(const std::string& from, const std::string& to, size_t payload_bytes);
  /// Faults, one per kind. A duplicate is a second transmitted and
  /// delivered copy of the frame, so it counts a frame and a delivery.
  void drop(const std::string& from, const std::string& to) {
    bump(from, to, &ChannelStats::drops, m_.faults);
  }
  void duplicate(const std::string& from, const std::string& to, size_t frame_bytes,
                 size_t payload_bytes);
  void corruption(const std::string& from, const std::string& to) {
    bump(from, to, &ChannelStats::corruptions, m_.faults);
  }
  void ack_loss(const std::string& from, const std::string& to) {
    bump(from, to, &ChannelStats::ack_losses, m_.faults);
  }
  void delay(const std::string& from, const std::string& to, uint64_t ms);
  void script_failure(const std::string& from, const std::string& to) {
    bump(from, to, &ChannelStats::script_failures, m_.faults);
  }
  /// Sender re-attempt after a TransportError.
  void retry(const std::string& from, const std::string& to) {
    bump(from, to, &ChannelStats::retries, m_.retries);
  }
  /// Copy of an already-applied request, suppressed by the receiver.
  void redelivery(const std::string& from, const std::string& to) {
    bump(from, to, &ChannelStats::redeliveries, m_.redeliveries);
  }
  /// Payload bytes the receiver applied.
  void accepted(const std::string& from, const std::string& to, size_t bytes);

  /// Sum of payload bytes in both directions between two entities
  /// (Table IV numbers).
  size_t between(const std::string& a, const std::string& b) const;

  /// Full counters for one directed channel (zeroes if never used).
  ChannelStats stats(const std::string& from, const std::string& to) const;
  /// Aggregate over every channel.
  ChannelStats totals() const;

  /// Copy of every per-channel row (a snapshot, not a live reference).
  std::map<std::pair<std::string, std::string>, ChannelStats> entries() const;

 private:
  /// Runs `fn(row)` for the directed channel under the meter lock.
  template <typename Fn>
  void record(const std::string& from, const std::string& to, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn(rows_[{from, to}]);
  }
  /// An event that counts one in the row's `field` and one in `series`.
  void bump(const std::string& from, const std::string& to, uint64_t ChannelStats::*field,
            const telemetry::CounterSeries& series);

  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, ChannelStats> rows_;
  /// maabe_transport_<name>_total{instance}.
  struct {
    telemetry::CounterSeries frames, frame_bytes, deliveries, faults, retries,
        redeliveries;
  } m_;
};

/// Accumulates engine-stat deltas per named phase.
class OpMeter {
 public:
  /// Snapshots the engine's counters on construction and records the
  /// delta into `meter` under `phase` on destruction.
  class Scope {
   public:
    Scope(OpMeter& meter, engine::CryptoEngine& eng, std::string phase)
        : meter_(meter), eng_(eng), phase_(std::move(phase)), start_(eng.stats()) {}
    ~Scope() { meter_.phases_[phase_] += eng_.stats() - start_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OpMeter& meter_;
    engine::CryptoEngine& eng_;
    std::string phase_;
    engine::EngineStats start_;
  };

  const std::map<std::string, engine::EngineStats>& phases() const { return phases_; }

 private:
  std::map<std::string, engine::EngineStats> phases_;
};

}  // namespace maabe::cloud
