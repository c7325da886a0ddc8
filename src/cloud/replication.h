// Asynchronous replication plumbing for the cluster (DESIGN.md §13).
//
// Two pieces:
//
//  * Wire formats for the node-to-node protocol: ReplicationOp (a
//    versioned copy of a stored file, sent from the coordinator of a
//    write, by read-repair and by recovery transfers), FetchReply (one
//    replica's answer in a quorum read, carrying the version and
//    recorded content hash so the coordinator can detect stale or
//    corrupt copies).
//
//  * DurableLink: the per-destination write-ahead op queue. A send that
//    cannot reach its destination parks in FIFO order under its
//    original request id and replays head-first on the next flush, so
//    order is preserved per destination and a recovered node receives
//    exactly the ops it missed, in the order they were issued. It
//    carries entity traffic only, and every parked op gates reads. The
//    cluster's own misses each have one record elsewhere: a missed
//    replica write is a hint at the holder (recovery.h), drained from
//    the holder's current copy, and a lost epoch verdict is the entry
//    in the coordinator's decision log, which the recovery resolver
//    reads.
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "cloud/transport.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

// ---------------------------------------------------- wire formats --

/// One versioned write as shipped between replicas. `wire` is the
/// serialized StoredFile; `hash` is SHA-256 over `wire`, recorded by
/// the coordinator so a replica (and later quorum reads) can tell a
/// faithful copy from a corrupted one.
struct ReplicationOp {
  std::string file_id;
  uint64_t version = 0;
  Bytes hash;
  Bytes wire;
};

Bytes encode_replication_op(const ReplicationOp& op);
ReplicationOp decode_replication_op(ByteView data);  ///< throws WireError

/// One replica's reply in a quorum read. `hash` is the hash recorded
/// when the copy was written; the coordinator recomputes SHA-256 over
/// `wire` and treats a mismatch as a corrupt replica.
struct FetchReply {
  bool found = false;
  uint64_t version = 0;
  Bytes hash;
  Bytes wire;
};

Bytes encode_fetch_reply(const FetchReply& r);
FetchReply decode_fetch_reply(ByteView data);  ///< throws WireError

// ----------------------------------------------------- DurableLink --

/// Default bound on a single destination's parked queue; see
/// DurableLink::set_pending_cap.
inline constexpr size_t kDefaultPendingCap = 4096;

/// Ordered durable sends over a ReliableLink: queues behind earlier
/// parked deliveries to the same destination, parks instead of throwing
/// on transport failure, and replays per-destination queues head-first.
///
/// Admission control: each destination's queue is bounded (default
/// kDefaultPendingCap ops). A send that would park behind a full queue
/// is rejected with TransportError(kOverloaded) and counted in
/// maabe_transport_parked_rejected_total — a sustained outage applies
/// backpressure to callers instead of growing memory without bound.
///
/// Thread-safety: all public methods lock the (recursive) queue mutex.
/// Recursive because a parked delivery's apply may nest another
/// send_or_park — a replayed owner update key sends its revocation
/// epoch from inside its own apply.
class DurableLink {
 public:
  using Apply = ReliableLink::Apply;

  explicit DurableLink(ReliableLink& link);

  DurableLink(const DurableLink&) = delete;
  DurableLink& operator=(const DurableLink&) = delete;

  /// Caps every per-destination queue at `cap` parked ops (0 restores
  /// the default; there is deliberately no "unbounded" setting).
  void set_pending_cap(size_t cap);
  size_t pending_cap() const;

  /// Rejections (kOverloaded) since construction:
  /// maabe_transport_parked_rejected_total.
  uint64_t rejected_total() const { return rejected_->value(); }

  /// Flushes `to`'s queue first (order must be preserved), then either
  /// delivers now (returns true) or parks (returns false) under `label`,
  /// which names it in health views, spans, events and errors. Throws
  /// TransportError(kOverloaded) when `to`'s queue is already at the cap.
  bool send_or_park(const std::string& from, const std::string& to, Bytes payload,
                    Apply apply, std::string label);

  /// Replays `to`'s queue head-first; stops at the first transport
  /// failure so per-destination order is never violated.
  void flush_queue(const std::string& to);

  /// Flushes every queue; returns the number of deliveries still parked.
  size_t flush_all();

  size_t pending_count() const;
  size_t pending_for(const std::string& to) const;
  std::map<std::string, size_t> pending_by_destination() const;
  /// The labels of the deliveries parked for `to`, head first.
  std::vector<std::string> pending_labels(const std::string& to) const;

 private:
  struct Pending {
    uint64_t request_id = 0;
    std::string from;
    Bytes payload;
    Apply apply;
    std::string label;
    /// The sender's span context at park time. Replays run under it
    /// (ContextOverride), so a parked frame carries its ORIGINATING
    /// trace over the wire instead of whichever operation happened to
    /// trigger the flush; invalid when the original send was untraced.
    telemetry::SpanContext ctx;
  };

  ReliableLink& link_;
  mutable std::recursive_mutex mu_;
  std::map<std::string, std::deque<Pending>> pending_;  // keyed by destination
  size_t pending_cap_ = kDefaultPendingCap;
  const telemetry::CounterSeries rejected_;
};

}  // namespace maabe::cloud
