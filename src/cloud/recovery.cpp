#include "cloud/recovery.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "cloud/cluster.h"
#include "common/errors.h"
#include "common/wire.h"
#include "crypto/sha256.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

namespace {

// Recovery verbs on the node-to-node channel. Every exchange is two
// transport legs (request, reply) so the meter and fault injection see
// both directions, exactly like the quorum read.
constexpr uint8_t kTreeLevel = 1;     ///< digests of one tree level slice
constexpr uint8_t kShardListing = 2;  ///< leaf entries of divergent shards
constexpr uint8_t kFilePull = 3;      ///< current copy of one file
constexpr uint8_t kHintList = 4;      ///< hints held for a target node
constexpr uint8_t kHintClear = 5;     ///< ack a drained hint

}  // namespace

/// One (file_id, version, content-hash) Merkle leaf. The hash covers
/// the bytes the node holds *now*, not the hash recorded at write time,
/// so silent corruption diverges the trees; `authentic` says whether
/// the two still agree.
struct RecoveryManager::ShardLeaf {
  std::string fid;
  uint64_t version = 0;
  Bytes content_hash;
  bool authentic = true;
};

/// Responder-side state of one anti-entropy session: the pair-scoped
/// listing and tree are computed once per sync_id and served level by
/// level, so a session sees one coherent snapshot of the store.
struct RecoveryManager::Session {
  std::string peer;
  uint64_t sync_id = 0;
  std::vector<std::vector<ShardLeaf>> listing;  // per shard, sorted by fid
  std::vector<std::vector<Bytes>> levels;       // [0] = root ... back() = shard leaves
};

RecoveryManager::RecoveryManager(Cluster& cluster) : cluster_(cluster) {
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Labels l{{"instance", cluster.instance()}};
  const auto verdict = [&](const char* v) {
    return reg.counter("maabe_recovery_epochs_resolved_total",
                       {{"instance", cluster.instance()}, {"verdict", v}});
  };
  m_ = {reg.counter("maabe_recovery_hints_recorded_total", l),
        reg.counter("maabe_recovery_hints_replayed_total", l),
        reg.counter("maabe_recovery_hints_superseded_total", l),
        reg.counter("maabe_recovery_hints_dropped_total", l),
        reg.counter("maabe_recovery_syncs_total", l),
        reg.counter("maabe_recovery_leaves_hashed_total", l),
        reg.counter("maabe_recovery_sync_rounds_total", l),
        reg.counter("maabe_recovery_shards_divergent_total", l),
        reg.counter("maabe_recovery_files_transferred_total", l),
        reg.counter("maabe_recovery_bytes_transferred_total", l),
        verdict("commit"),
        verdict("abort"),
        reg.counter("maabe_recovery_rejoins_total", l),
        reg.counter("maabe_recovery_sync_failures_total", l)};
}
RecoveryManager::~RecoveryManager() = default;

/// Binary tree over the per-shard digests, root first. The shard count
/// pads to a power of two so both sides' trees always align.
std::vector<std::vector<Bytes>> RecoveryManager::build_tree_levels(
    const std::vector<std::vector<RecoveryManager::ShardLeaf>>& listing) {
  size_t width = 1;
  while (width < listing.size()) width <<= 1;
  std::vector<Bytes> leaves(width);
  for (size_t i = 0; i < width; ++i) {
    Writer w;
    if (i < listing.size()) {
      for (const RecoveryManager::ShardLeaf& leaf : listing[i]) {
        w.str(leaf.fid);
        w.u64(leaf.version);
        w.raw(leaf.content_hash);
      }
    }
    leaves[i] = crypto::Sha256::digest(w.bytes());
  }
  std::vector<std::vector<Bytes>> levels;
  levels.push_back(std::move(leaves));
  while (levels.back().size() > 1) {
    const std::vector<Bytes>& prev = levels.back();
    std::vector<Bytes> up(prev.size() / 2);
    for (size_t i = 0; i < up.size(); ++i) {
      Writer w;
      w.raw(prev[2 * i]);
      w.raw(prev[2 * i + 1]);
      up[i] = crypto::Sha256::digest(w.bytes());
    }
    levels.push_back(std::move(up));
  }
  std::reverse(levels.begin(), levels.end());
  return levels;
}

// ------------------------------------------------------ tree build --

std::vector<std::vector<RecoveryManager::ShardLeaf>>
RecoveryManager::pair_listing(const std::string& owner,
                              const std::string& peer, LeafMemo* memo) {
  const CloudServer& store = cluster_.node_store(owner);
  std::vector<std::vector<ShardLeaf>> out(store.shard_count());
  // file_ids() is sorted, so each shard's leaves come out fid-sorted.
  for (const std::string& fid : store.file_ids()) {
    const std::vector<std::string> replicas = cluster_.ring_.replicas_for(fid);
    const auto has = [&](const std::string& x) {
      return std::find(replicas.begin(), replicas.end(), x) != replicas.end();
    };
    if (!has(owner) || !has(peer)) continue;  // not a shared file
    std::vector<ShardLeaf>& shard = out[store.shard_of(fid)];
    if (memo != nullptr) {
      const auto it = memo->find(fid);
      if (it != memo->end() && it->second.version == store.version_of(fid)) {
        shard.push_back(it->second);
        continue;
      }
    }
    const FetchReply copy = store.peek(fid);
    ShardLeaf leaf;
    leaf.fid = fid;
    leaf.version = copy.version;
    leaf.content_hash = crypto::Sha256::digest(copy.wire);
    leaf.authentic = leaf.content_hash == copy.hash;
    m_.leaves_hashed->inc();
    if (memo != nullptr) (*memo)[fid] = leaf;
    shard.push_back(std::move(leaf));
  }
  return out;
}

RecoveryManager::Session& RecoveryManager::session_for(
    const std::string& owner, const std::string& peer, uint64_t sync_id) {
  // Caller holds mu_. One cached session per responder: a new sync_id
  // (or a different peer) snapshots the store afresh.
  std::unique_ptr<Session>& slot = sessions_[owner];
  if (!slot || slot->sync_id != sync_id || slot->peer != peer) {
    auto s = std::make_unique<Session>();
    s->peer = peer;
    s->sync_id = sync_id;
    const auto run = session_memos_.find(sync_id);
    s->listing = pair_listing(owner, peer,
                              run != session_memos_.end() ? &run->second->at(owner) : nullptr);
    s->levels = build_tree_levels(s->listing);
    slot = std::move(s);
  }
  return *slot;
}

// ------------------------------------------------------------- rpc --

Bytes RecoveryManager::rpc(const std::string& from, const std::string& to,
                           Bytes request) {
  return cluster_.rpc(from, to, request,
                      [this, &to](ByteView payload) { return serve(to, payload); });
}

std::optional<ReplicationOp> RecoveryManager::current_op(const std::string& node,
                                                         const std::string& file_id) {
  FetchReply copy = cluster_.local_read(node, file_id);
  if (!copy.found) return std::nullopt;
  // Transfers carry the hash of the bytes held now, not the recorded
  // one: the receiver's equal-version check then repairs bit-rot.
  const Bytes hash = crypto::Sha256::digest(copy.wire);
  return ReplicationOp{file_id, copy.version, hash, std::move(copy.wire)};
}

Bytes RecoveryManager::serve(const std::string& self, ByteView request) {
  Cluster::Node& n = cluster_.node(self);
  cluster_.ensure_alive(n);
  Reader r(request);
  const uint8_t verb = r.u8();
  Writer w;
  switch (verb) {
    case kTreeLevel: {
      const std::string initiator = r.str();
      const uint64_t sync_id = r.u64();
      const uint32_t depth = r.u32();
      const uint32_t count = r.u32();
      std::lock_guard<std::mutex> lock(mu_);
      Session& s = session_for(self, initiator, sync_id);
      w.u32(count);
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t idx = r.u32();
        if (depth >= s.levels.size() || idx >= s.levels[depth].size())
          throw SchemeError("recovery: tree level request out of range");
        w.var_bytes(s.levels[depth][idx]);
      }
      r.expect_done();
      break;
    }
    case kShardListing: {
      const std::string initiator = r.str();
      const uint64_t sync_id = r.u64();
      const uint32_t count = r.u32();
      std::lock_guard<std::mutex> lock(mu_);
      Session& s = session_for(self, initiator, sync_id);
      w.u32(count);
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t shard = r.u32();
        if (shard >= s.listing.size())
          throw SchemeError("recovery: shard listing request out of range");
        w.u32(shard);
        w.u32(static_cast<uint32_t>(s.listing[shard].size()));
        for (const ShardLeaf& leaf : s.listing[shard]) {
          w.str(leaf.fid);
          w.u64(leaf.version);
          w.u8(leaf.authentic ? 1 : 0);
          w.var_bytes(leaf.content_hash);
        }
      }
      r.expect_done();
      break;
    }
    case kFilePull: {
      const std::string fid = r.str();
      r.expect_done();
      const std::optional<ReplicationOp> op = current_op(self, fid);
      w.u8(op ? 1 : 0);
      if (op) w.var_bytes(encode_replication_op(*op));
      break;
    }
    case kHintList: {
      const std::string target = r.str();
      r.expect_done();
      std::map<std::string, uint64_t> hints;
      {
        std::lock_guard<std::mutex> lock(n.mu);
        if (const auto it = n.hints.find(target); it != n.hints.end()) hints = it->second;
      }
      // Each hint with the version guarding its clear and this node's
      // current version (0 once gone), the one the drain decides on.
      w.u32(static_cast<uint32_t>(hints.size()));
      for (const auto& [fid, version] : hints) {
        w.str(fid);
        w.u64(version);
        w.u64(cluster_.version_of(self, fid));
      }
      break;
    }
    case kHintClear: {
      const std::string target = r.str();
      const std::string fid = r.str();
      const uint64_t version = r.u64();
      r.expect_done();
      std::lock_guard<std::mutex> lock(n.mu);
      const auto it = n.hints.find(target);
      if (it != n.hints.end()) {
        const auto hit = it->second.find(fid);
        if (hit != it->second.end() && hit->second <= version) {
          it->second.erase(hit);
          if (it->second.empty()) n.hints.erase(it);
        }
      }
      w.u8(1);
      break;
    }
    default:
      throw SchemeError("recovery: unknown verb " + std::to_string(verb));
  }
  return w.take();
}

// ----------------------------------------------------- anti-entropy --

void RecoveryManager::push_file(const std::string& from, const std::string& to,
                                const ShardLeaf& leaf, SyncReport* rep) {
  const std::optional<ReplicationOp> op = current_op(from, leaf.fid);
  if (!op) return;
  cluster_.link_.send(from, to, encode_replication_op(*op), [this, &to](ByteView payload) {
    cluster_.handle_replication(to, payload);
  });
  ++rep->files_pushed;
  rep->bytes_transferred += op->wire.size();
}

bool RecoveryManager::pull_file(const std::string& to, const std::string& from,
                                const std::string& file_id, uint64_t* bytes) {
  Writer w;
  w.u8(kFilePull);
  w.str(file_id);
  const Bytes reply = rpc(to, from, w.take());
  Reader r(reply);
  if (r.u8() == 0) return false;
  const Bytes op_wire = r.var_bytes();
  r.expect_done();
  ReplicationOp op = decode_replication_op(op_wire);
  if (bytes != nullptr) *bytes += op.wire.size();
  cluster_.apply_replication(cluster_.node(to), std::move(op));
  return true;
}

SyncReport RecoveryManager::sync(const std::string& initiator,
                                 const std::string& peer) {
  return sync_session(initiator, peer, nullptr);
}

RecoveryManager::RunMemos RecoveryManager::run_memos() const {
  RunMemos memos;
  for (const std::string& name : cluster_.names_) memos[name];
  return memos;
}

SyncReport RecoveryManager::sync_session(const std::string& initiator,
                                         const std::string& peer, RunMemos* memos) {
  Cluster::Node& a = cluster_.node(initiator);
  cluster_.ensure_alive(a);
  cluster_.ensure_alive(cluster_.node(peer));
  telemetry::Span span =
      telemetry::Tracer::global().start_span("recovery.sync");
  if (span.active()) {
    span.attr("initiator", initiator);
    span.attr("peer", peer);
    span.attr("node_id", initiator);
  }
  const uint64_t sync_id =
      next_sync_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  SyncReport rep;
  // The responder lists through the same run's memos while this
  // session is open.
  struct OpenSession {
    OpenSession(RecoveryManager& owner, uint64_t sync, RunMemos* memos) : rm(owner), id(sync) {
      std::lock_guard<std::mutex> lock(rm.mu_);
      if (memos != nullptr) rm.session_memos_[id] = memos;
    }
    ~OpenSession() {
      std::lock_guard<std::mutex> lock(rm.mu_);
      rm.session_memos_.erase(id);
    }
    RecoveryManager& rm;
    uint64_t id;
  } open(*this, sync_id, memos);
  const std::vector<std::vector<ShardLeaf>> listing =
      pair_listing(initiator, peer, memos != nullptr ? &memos->at(initiator) : nullptr);
  // A transferred file changed under its receiver's leaf; the next
  // session hashes it anew.
  const auto pull = [&](const std::string& fid, uint64_t* bytes) {
    if (!pull_file(initiator, peer, fid, bytes)) return false;
    if (memos != nullptr) memos->at(initiator).erase(fid);
    return true;
  };
  const auto push = [&](const ShardLeaf& leaf) {
    push_file(initiator, peer, leaf, &rep);
    if (memos != nullptr) memos->at(peer).erase(leaf.fid);
  };
  const std::vector<std::vector<Bytes>> levels = build_tree_levels(listing);

  const uint32_t leaf_depth = static_cast<uint32_t>(levels.size()) - 1;
  std::vector<uint32_t> want = {0};
  std::vector<uint32_t> divergent;
  for (uint32_t depth = 0; depth <= leaf_depth && !want.empty(); ++depth) {
    Writer w;
    w.u8(kTreeLevel);
    w.str(initiator);
    w.u64(sync_id);
    w.u32(depth);
    w.u32(static_cast<uint32_t>(want.size()));
    for (const uint32_t idx : want) w.u32(idx);
    const Bytes reply = rpc(initiator, peer, w.take());
    ++rep.rounds;
    Reader r(reply);
    const uint32_t count = r.u32();
    if (count != want.size())
      throw SchemeError("recovery: tree level reply count mismatch");
    std::vector<uint32_t> next;
    for (uint32_t i = 0; i < count; ++i) {
      const Bytes remote = r.var_bytes();
      const uint32_t idx = want[i];
      if (levels[depth][idx] == remote) continue;  // subtree converged
      if (depth == leaf_depth) {
        if (idx < listing.size()) divergent.push_back(idx);
      } else {
        next.push_back(2 * idx);
        next.push_back(2 * idx + 1);
      }
    }
    r.expect_done();
    want = std::move(next);
  }

  if (!divergent.empty()) {
    rep.shards_divergent = divergent.size();
    Writer w;
    w.u8(kShardListing);
    w.str(initiator);
    w.u64(sync_id);
    w.u32(static_cast<uint32_t>(divergent.size()));
    for (const uint32_t shard : divergent) w.u32(shard);
    const Bytes reply = rpc(initiator, peer, w.take());
    ++rep.rounds;
    Reader r(reply);
    const uint32_t nshards = r.u32();
    for (uint32_t s = 0; s < nshards; ++s) {
      const uint32_t shard = r.u32();
      const uint32_t count = r.u32();
      std::vector<ShardLeaf> remote(count);
      for (uint32_t i = 0; i < count; ++i) {
        remote[i].fid = r.str();
        remote[i].version = r.u64();
        remote[i].authentic = r.u8() != 0;
        remote[i].content_hash = r.var_bytes();
      }
      static const std::vector<ShardLeaf> kNoLeaves;
      const std::vector<ShardLeaf>& local =
          shard < listing.size() ? listing[shard] : kNoLeaves;
      // Both sides are fid-sorted: a merge walk finds the divergence.
      size_t li = 0, ri = 0;
      while (li < local.size() || ri < remote.size()) {
        const bool only_local =
            ri == remote.size() ||
            (li < local.size() && local[li].fid < remote[ri].fid);
        const bool only_remote =
            li == local.size() ||
            (ri < remote.size() && remote[ri].fid < local[li].fid);
        if (only_local) {
          push(local[li]);
          ++li;
          continue;
        }
        if (only_remote) {
          uint64_t bytes = 0;
          if (pull(remote[ri].fid, &bytes)) ++rep.files_pulled;
          rep.bytes_transferred += bytes;
          ++ri;
          continue;
        }
        const ShardLeaf& l = local[li];
        const ShardLeaf& m = remote[ri];
        ++li;
        ++ri;
        if (l.version == m.version && l.content_hash == m.content_hash)
          continue;  // converged leaf
        bool push_wins;
        if (l.version != m.version) {
          push_wins = l.version > m.version;  // newest version wins
        } else if (l.authentic != m.authentic) {
          push_wins = l.authentic;  // authentic copy beats bit-rot
        } else {
          // Same version, both (or neither) authentic yet different
          // bytes: deterministic tie-break by ring preference order.
          push_wins = true;
          for (const std::string& p : cluster_.ring_.preference_order(l.fid)) {
            if (p == initiator) break;
            if (p == peer) {
              push_wins = false;
              break;
            }
          }
        }
        if (push_wins) {
          push(l);
        } else {
          uint64_t bytes = 0;
          if (pull(l.fid, &bytes)) ++rep.files_pulled;
          rep.bytes_transferred += bytes;
        }
      }
    }
    r.expect_done();
  }

  m_.syncs->inc();
  m_.sync_rounds->add(rep.rounds);
  m_.shards_divergent->add(rep.shards_divergent);
  m_.files_transferred->add(rep.files_pushed + rep.files_pulled);
  m_.bytes_transferred->add(rep.bytes_transferred);
  if (span.active()) {
    span.attr("rounds", rep.rounds);
    span.attr("shards_divergent", rep.shards_divergent);
    span.attr("files_transferred", rep.files_pushed + rep.files_pulled);
    span.attr("bytes_transferred", rep.bytes_transferred);
  }
  return rep;
}

SyncReport RecoveryManager::sync_all() {
  SyncReport agg;
  RunMemos memos = run_memos();  // each node's files, hashed once per run
  for (size_t i = 0; i < cluster_.names_.size(); ++i) {
    for (size_t j = i + 1; j < cluster_.names_.size(); ++j) {
      const std::string& a = cluster_.names_[i];
      const std::string& b = cluster_.names_[j];
      if (!cluster_.alive(a) || !cluster_.alive(b)) continue;
      try {
        agg += sync_session(a, b, &memos);
      } catch (const TransportError&) {
        m_.sync_failures->inc();
      }
    }
  }
  return agg;
}

// -------------------------------------------------- hinted hand-off --

void RecoveryManager::record_hint(const std::string& holder,
                                  const std::string& target,
                                  const std::string& file_id,
                                  uint64_t version) {
  Cluster::Node& h = cluster_.node(holder);
  {
    std::lock_guard<std::mutex> lock(h.mu);
    uint64_t& v = h.hints[target][file_id];
    if (version > v) v = version;
  }
  m_.hints_recorded->inc();
}

size_t RecoveryManager::drain_hints(const std::string& holder,
                                    const std::string& target) {
  // A pair with no hints costs no round trip. A holder whose store holds
  // a staged epoch that is not in flight may hold a copy that epoch's
  // lost commit has yet to re-key, so its hints wait for the resolver. A
  // running 2PC delivers its own verdict and does not hold them up.
  const Cluster::Node& h = cluster_.node(holder);
  {
    std::lock_guard<std::mutex> lock(h.mu);
    if (!h.hints.contains(target)) return 0;
  }
  if (!cluster_.alive(holder) || !cluster_.alive(target)) return 0;
  for (const uint64_t epoch_id : h.store->staged_epoch_ids()) {
    if (!cluster_.epoch_in_flight(epoch_id)) return 0;
  }
  telemetry::Span span =
      telemetry::Tracer::global().start_span("recovery.drain_hints");
  if (span.active()) {
    span.attr("node", target);
    span.attr("node_id", target);
    span.attr("holder", holder);
  }
  size_t drained = 0;
  try {
    Writer w;
    w.u8(kHintList);
    w.str(target);
    const Bytes reply = rpc(target, holder, w.take());
    Reader r(reply);
    for (uint32_t i = r.u32(); i > 0; --i) {
      const std::string fid = r.str();
      const uint64_t hinted = r.u64();   // guards the clear
      const uint64_t current = r.u64();  // the holder's copy now; 0 when gone
      uint64_t bytes = 0;
      if (current != 0 && cluster_.version_of(target, fid) >= current) {
        m_.hints_superseded->inc();
      } else if (current != 0 && pull_file(target, holder, fid, &bytes)) {
        m_.hints_replayed->inc();
        m_.files_transferred->inc();
        m_.bytes_transferred->add(bytes);
      } else {
        m_.hints_dropped->inc();
      }
      Writer clear;
      clear.u8(kHintClear);
      clear.str(target);
      clear.str(fid);
      clear.u64(hinted);
      rpc(target, holder, clear.take());
      ++drained;
    }
    r.expect_done();
  } catch (const TransportError&) {
    // The undrained hints stay put for a later drain; anti-entropy
    // covers the files in the meantime.
    m_.sync_failures->inc();
  }
  if (span.active()) span.attr("drained", static_cast<uint64_t>(drained));
  return drained;
}

size_t RecoveryManager::drain_all_hints() {
  for (const std::string& holder : cluster_.names_) {
    for (const std::string& target : cluster_.names_) drain_hints(holder, target);
  }
  return pending_hints();
}

std::vector<std::string> RecoveryManager::holders_owing(const std::string& target,
                                                        const std::string& file_id) const {
  std::vector<std::string> holders;
  for (const auto& n : cluster_.nodes_) {
    std::lock_guard<std::mutex> lock(n->mu);
    const auto it = n->hints.find(target);
    if (it != n->hints.end() && it->second.contains(file_id)) holders.push_back(n->name);
  }
  return holders;
}

size_t RecoveryManager::hint_count(const std::string& target) const {
  size_t total = 0;
  for (const auto& n : cluster_.nodes_) {
    std::lock_guard<std::mutex> lock(n->mu);
    const auto it = n->hints.find(target);
    if (it != n->hints.end()) total += it->second.size();
  }
  return total;
}

size_t RecoveryManager::pending_hints() const {
  size_t total = 0;
  for (const auto& n : cluster_.nodes_) {
    std::lock_guard<std::mutex> lock(n->mu);
    for (const auto& [target, files] : n->hints) total += files.size();
  }
  return total;
}

// ---------------------------------------------- 2PC epoch resolution --

uint8_t RecoveryManager::logged_verdict(uint64_t epoch_id) const {
  // Every node's log, dead or alive: like the hints, it is durable node
  // state, and a dead coordinator's log may be the only commit record.
  uint8_t verdict = 0;
  for (const auto& n : cluster_.nodes_) {
    std::lock_guard<std::mutex> lock(n->mu);
    const auto it = n->decisions.find(epoch_id);
    if (it == n->decisions.end()) continue;
    if (it->second == Cluster::kVerdictCommit) return it->second;
    verdict = it->second;
  }
  return verdict;
}

size_t RecoveryManager::resolve_staged_epochs() {
  size_t resolved = 0;
  for (const auto& n : cluster_.nodes_) {
    if (!cluster_.alive(n->name)) continue;
    for (const uint64_t epoch_id : n->store->staged_epoch_ids()) {
      if (cluster_.epoch_in_flight(epoch_id)) continue;
      // Presumed abort: an epoch no log records never committed — the
      // coordinator records its commit decision before any commit applies.
      const uint8_t verdict = logged_verdict(epoch_id);
      const bool commit = verdict == Cluster::kVerdictCommit;
      telemetry::Span span =
          telemetry::Tracer::global().start_span("recovery.resolve_epoch");
      if (span.active()) {
        span.attr("node", n->name);
        span.attr("node_id", n->name);
        span.attr("epoch_id", epoch_id);
        span.attr("verdict", commit            ? "commit"
                             : verdict == 0    ? "presumed_abort"
                                               : "abort");
      }
      // Counted only when staged state was there to apply it to: the 2PC
      // may have finished, or a kill wiped the ledger, since the listing.
      if (!cluster_.apply_epoch_decision(*n, epoch_id, commit)) continue;
      (commit ? m_.epochs_resolved_commit : m_.epochs_resolved_abort)->inc();
      ++resolved;
    }
  }
  return resolved;
}

// ------------------------------------------------------------ rejoin --

void RecoveryManager::rejoin(const std::string& name) {
  telemetry::Span span =
      telemetry::Tracer::global().start_span("recovery.rejoin");
  if (span.active()) {
    span.attr("node", name);
    span.attr("node_id", name);
  }
  m_.rejoins->inc();
  // Order matters: resolve staged epochs first so anti-entropy compares
  // committed state, then drain the writes that missed this node and
  // those it holds hints for (a holder that died before draining hands
  // them off now), then a scoped sync against each alive peer closes
  // whatever is left (orphaned commits, lost repairs, bit-rot).
  const size_t resolved = resolve_staged_epochs();
  size_t drained = 0;
  for (const std::string& peer : cluster_.names_)
    drained += drain_hints(peer, name) + drain_hints(name, peer);
  SyncReport agg;
  RunMemos memos = run_memos();  // this node's files, hashed once across its sessions
  for (const std::string& peer : cluster_.names_) {
    if (peer == name || !cluster_.alive(peer)) continue;
    try {
      agg += sync_session(name, peer, &memos);
    } catch (const TransportError&) {
      m_.sync_failures->inc();
    }
  }
  if (span.active()) {
    span.attr("epochs_resolved", static_cast<uint64_t>(resolved));
    span.attr("hints_drained", static_cast<uint64_t>(drained));
    span.attr("files_transferred", agg.files_pushed + agg.files_pulled);
    span.attr("bytes_transferred", agg.bytes_transferred);
  }
}

RecoveryStats RecoveryManager::stats() const {
  RecoveryStats s;
  s.hints_recorded = m_.hints_recorded->value();
  s.hints_replayed = m_.hints_replayed->value();
  s.hints_superseded = m_.hints_superseded->value();
  s.hints_dropped = m_.hints_dropped->value();
  s.syncs = m_.syncs->value();
  s.leaves_hashed = m_.leaves_hashed->value();
  s.sync_rounds = m_.sync_rounds->value();
  s.shards_divergent = m_.shards_divergent->value();
  s.files_transferred = m_.files_transferred->value();
  s.bytes_transferred = m_.bytes_transferred->value();
  s.epochs_resolved_commit = m_.epochs_resolved_commit->value();
  s.epochs_resolved_abort = m_.epochs_resolved_abort->value();
  s.rejoins = m_.rejoins->value();
  s.sync_failures = m_.sync_failures->value();
  return s;
}

}  // namespace maabe::cloud
