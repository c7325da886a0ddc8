#include "cloud/cluster.h"

#include <algorithm>
#include <tuple>

#include "abe/serial.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

namespace {

// Epoch control verbs on the node-to-node channel.
constexpr uint8_t kEpochStage = 1;
constexpr uint8_t kEpochCommit = 2;
constexpr uint8_t kEpochAbort = 3;

}  // namespace

Cluster::Cluster(std::shared_ptr<const pairing::Group> grp,
                 const ClusterConfig& config, ReliableLink& link,
                 DurableLink& durable)
    : grp_(std::move(grp)), config_(config), link_(link), durable_(durable) {
  if (config_.nodes == 0) config_.nodes = 1;
  config_.replication = std::clamp<size_t>(config_.replication, 1, config_.nodes);
  // One node keeps the "server" channel name so every existing script
  // and meter expectation (Table IV's channel rows) stays byte-compatible.
  if (config_.nodes == 1) {
    names_ = {"server"};
  } else {
    for (size_t i = 0; i < config_.nodes; ++i)
      names_.push_back("node:" + std::to_string(i));
  }
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Labels l{{"instance", instance()}};
  m_ = {reg.counter("maabe_cluster_replication_ops_total", l),
        reg.counter("maabe_cluster_replication_applied_total", l),
        reg.counter("maabe_cluster_read_repairs_total", l),
        reg.counter("maabe_cluster_quorum_reads_total", l),
        reg.counter("maabe_cluster_quorum_failures_total", l),
        reg.counter("maabe_cluster_epochs_2pc_total", l),
        reg.counter("maabe_cluster_epoch_commits_total", l),
        reg.counter("maabe_cluster_epoch_aborts_total", l),
        reg.counter("maabe_cluster_epoch_commit_orphans_total", l),
        reg.gauge("maabe_cluster_nodes_alive", l)};
  for (const std::string& name : names_) {
    auto n = std::make_unique<Node>();
    n->name = name;
    n->store = std::make_unique<CloudServer>(grp_, CloudServer::kDefaultShards, name,
                                             instance());
    nodes_.push_back(std::move(n));
  }
  m_.nodes_alive->set(static_cast<int64_t>(nodes_.size()));
  ring_ = HashRing(names_, config_.replication);
  recovery_ = std::make_unique<RecoveryManager>(*this);
}

const std::string& Cluster::node_name(size_t i) const {
  if (i >= names_.size())
    throw SchemeError("Cluster: no node index " + std::to_string(i));
  return names_[i];
}

size_t Cluster::node_index(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) throw SchemeError("Cluster: unknown node '" + name + "'");
  return static_cast<size_t>(it - names_.begin());
}

CloudServer& Cluster::node_store(size_t i) {
  if (i >= nodes_.size())
    throw SchemeError("Cluster: no node index " + std::to_string(i));
  return *nodes_[i]->store;
}

CloudServer& Cluster::node_store(const std::string& name) {
  return *nodes_[node_index(name)]->store;
}

const CloudServer& Cluster::node_store(const std::string& name) const {
  return *nodes_[node_index(name)]->store;
}

Cluster::Node& Cluster::node(const std::string& name) {
  return *nodes_[node_index(name)];
}

const Cluster::Node& Cluster::node(const std::string& name) const {
  return *nodes_[node_index(name)];
}

// ------------------------------------------------------- liveness --

bool Cluster::alive(const std::string& name) const {
  const Node& n = node(name);
  std::lock_guard<std::mutex> lock(n.mu);
  return n.alive;
}

size_t Cluster::alive_count() const {
  return static_cast<size_t>(m_.nodes_alive->value());
}

void Cluster::kill_node(const std::string& name) {
  Node& n = node(name);
  {
    std::lock_guard<std::mutex> lock(n.mu);
    if (n.alive) m_.nodes_alive->add(-1);
    n.alive = false;
  }
  // Staged 2PC epochs are memory-only: a restart loses them, so a
  // commit it misses or receives later counts as an orphan instead of
  // committing stale staged state.
  n.store->abort_all_staged();
}

void Cluster::restart_node(const std::string& name) {
  Node& n = node(name);
  {
    std::lock_guard<std::mutex> lock(n.mu);
    if (!n.alive) m_.nodes_alive->add(1);
    n.alive = true;
  }
  // Rejoin protocol (DESIGN.md §15): resolve staged-open epochs, drain
  // the hints owed to and held by this node, then run a scoped Merkle
  // anti-entropy round against each alive peer. The node is
  // byte-identical to its peers afterwards without a full-store scan or
  // quorum read.
  recovery_->rejoin(name);
}

void Cluster::ensure_alive(const Node& n) const {
  std::lock_guard<std::mutex> lock(n.mu);
  if (!n.alive)
    throw TransportError(TransportError::Kind::kLost,
                         "cluster: node '" + n.name + "' is down");
}

// ------------------------------------------------------ placement --

std::vector<std::string> Cluster::replicas_for(const std::string& file_id) const {
  return ring_.replicas_for(file_id);
}

std::string Cluster::route_for(const std::string& file_id) const {
  const std::vector<std::string> replicas = ring_.replicas_for(file_id);
  for (const std::string& r : replicas) {
    if (alive(r)) return r;
  }
  // Whole replica set down: address the primary, so sends park there
  // and replay when it recovers.
  return replicas.front();
}

std::string Cluster::coordinator() const {
  for (const std::string& n : names_) {
    if (alive(n)) return n;
  }
  return names_.front();
}

// ----------------------------------------------------- write path --

void Cluster::handle_store(const std::string& self, ByteView stored_file_wire) {
  Node& n = node(self);
  ensure_alive(n);
  // A coordinator owed a hint for the file may lack a write its holder
  // took: a revision of its copy could rank at or below the holder's
  // and lose to it when the hint drains. The write fails instead, and
  // the client's durable send parks it until the hint has drained.
  const std::string file_id = stored_file_id(stored_file_wire);
  if (const auto holders = recovery_->holders_owing(self, file_id); !holders.empty())
    throw TransportError(TransportError::Kind::kDegraded,
                         "cluster: " + self + " is owed a write of '" + file_id +
                             "' by " + holders.front() + "; refusing a write");
  // The store keeps the received bytes as the file's next revision.
  // Send that revision to the other replicas (none at R=1: the
  // coordinator is then the file's only replica). A replica the send
  // misses is owed a hint, drained by a read, flush_pending or a rejoin.
  const ReplicationOp op =
      n.store->apply_next(Bytes(stored_file_wire.begin(), stored_file_wire.end()));
  const Bytes op_wire = encode_replication_op(op);
  for (const std::string& replica : ring_.replicas_for(op.file_id)) {
    if (replica == self) continue;
    m_.replication_ops->inc();
    send_replica(self, replica, op.file_id, op.version, op_wire);
  }
}

void Cluster::send_replica(const std::string& self, const std::string& replica,
                           const std::string& file_id, uint64_t version,
                           ByteView op_wire) {
  // A replica with deliveries parked for it, or owed this file's hint
  // by this holder, stays behind them: the drain ships the holder's
  // current copy, so this write rides the hint instead of overtaking.
  const std::vector<std::string> owing = recovery_->holders_owing(replica, file_id);
  if (durable_.pending_for(replica) == 0 &&
      std::find(owing.begin(), owing.end(), self) == owing.end()) {
    try {
      link_.send(self, replica, op_wire,
                 [this, &replica](ByteView payload) { handle_replication(replica, payload); });
      return;
    } catch (const TransportError&) {
      // Missed: the hint below is its one record.
    }
  }
  recovery_->record_hint(self, replica, file_id, version);
}

void Cluster::apply_replication(Node& n, ReplicationOp op) {
  if (n.store->apply(std::move(op))) m_.replication_applied->inc();
}

void Cluster::handle_replication(const std::string& self, ByteView op_wire) {
  Node& n = node(self);
  ensure_alive(n);
  apply_replication(n, decode_replication_op(op_wire));
}

// ------------------------------------------------------ read path --

Bytes Cluster::rpc(const std::string& from, const std::string& to, ByteView request,
                   const std::function<Bytes(ByteView)>& serve) {
  Bytes reply;
  link_.send(from, to, request, [&serve, &reply](ByteView payload) { reply = serve(payload); });
  Bytes out;
  link_.send(to, from, reply, [&out](ByteView payload) {
    out.assign(payload.begin(), payload.end());
  });
  return out;
}

Bytes Cluster::handle_fetch(const std::string& self, const std::string& file_id) {
  Node& coord = node(self);
  ensure_alive(coord);
  telemetry::Span span = telemetry::Tracer::global().start_span("cluster.quorum_fetch");
  if (span.active()) {
    span.attr("coordinator", self);
    span.attr("node_id", self);
    span.attr("file_id", file_id);
  }
  const std::vector<std::string> replicas = ring_.replicas_for(file_id);
  const size_t quorum = replicas.size() / 2 + 1;  // majority of R

  struct ReplicaReply {
    size_t pref = 0;
    std::string node;
    FetchReply reply;
    bool valid = false;
  };
  std::vector<ReplicaReply> replies;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const std::string& replica = replicas[i];
    if (replica == self) {
      replies.push_back({i, replica, local_read(self, file_id), false});
      continue;
    }
    if (!alive(replica)) continue;  // failure detector: don't wait on the dead
    try {
      // Two legs, like the client download: the request carries the id,
      // the reply carries the versioned bytes, and the meter sees both.
      const Bytes reply_wire =
          rpc(self, replica, bytes_of(file_id), [this, &replica](ByteView payload) {
            ensure_alive(node(replica));
            return encode_fetch_reply(
                local_read(replica, std::string(payload.begin(), payload.end())));
          });
      replies.push_back({i, replica, decode_fetch_reply(reply_wire), false});
    } catch (const TransportError&) {
      // No reply from this replica; quorum accounting decides below.
    }
  }

  if (replies.size() < quorum) {
    m_.quorum_failures->inc();
    if (span.active()) span.attr("outcome", "quorum_failed");
    throw TransportError(TransportError::Kind::kDegraded,
                         "cluster: quorum read of '" + file_id + "' got " +
                             std::to_string(replies.size()) + "/" +
                             std::to_string(quorum) + " replies");
  }
  m_.quorum_reads->inc();

  // Winner: authentic (bytes match the recorded hash) beats corrupt,
  // then the highest version, then ring preference order.
  ReplicaReply* winner = nullptr;
  for (ReplicaReply& r : replies) {
    if (!r.reply.found) continue;
    r.valid = crypto::Sha256::digest(r.reply.wire) == r.reply.hash;
    if (winner == nullptr ||
        std::make_tuple(r.valid, r.reply.version, winner->pref) >
            std::make_tuple(winner->valid, winner->reply.version, r.pref)) {
      winner = &r;
    }
  }
  if (winner == nullptr)
    throw SchemeError("CloudServer: no file '" + file_id + "'");
  // The newest reply may still lack a write: one its hint holder took
  // and has not drained. Unless that holder answered, fail closed.
  for (const std::string& holder : recovery_->holders_owing(winner->node, file_id)) {
    if (std::none_of(replies.begin(), replies.end(),
                     [&](const ReplicaReply& r) { return r.node == holder; })) {
      if (span.active()) span.attr("outcome", "hint_undrained");
      throw TransportError(TransportError::Kind::kDegraded,
                           "cluster: read of '" + file_id + "' at " + winner->node +
                               " waits on " + holder + "'s hint");
    }
  }

  // Read-repair: push the winner at divergent replicas, asynchronously.
  const Bytes true_hash = crypto::Sha256::digest(winner->reply.wire);
  for (const ReplicaReply& r : replies) {
    if (&r == winner) continue;
    if (r.reply.found && r.reply.wire == winner->reply.wire &&
        r.reply.version == winner->reply.version) {
      continue;
    }
    const ReplicationOp op{file_id, winner->reply.version, true_hash,
                           winner->reply.wire};
    m_.read_repairs->inc();
    if (r.node == self) {
      apply_replication(coord, op);  // repair our own stale/corrupt copy
      continue;
    }
    send_replica(self, r.node, file_id, op.version, encode_replication_op(op));
  }
  if (span.active()) {
    span.attr("replies", static_cast<uint64_t>(replies.size()));
    span.attr("outcome", "ok");
  }
  return winner->reply.wire;
}

// ----------------------------------------------------- revocation --

namespace {

struct EpochPayload {
  abe::UpdateKey uk;
  std::vector<abe::UpdateInfo> infos;
};

EpochPayload decode_epoch(const pairing::Group& grp, ByteView wire) {
  Reader r(wire);
  EpochPayload out;
  out.uk =
      abe::deserialize_update_key(grp, r.var_bytes(), abe::UkCheck::kCiphertextPath);
  const uint32_t n = r.u32();
  out.infos.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    out.infos.push_back(abe::deserialize_update_info(grp, r.var_bytes()));
  }
  r.expect_done();
  return out;
}

}  // namespace

void Cluster::send_epoch_control(const std::string& self, const std::string& peer,
                                 uint8_t verb, uint64_t epoch_id) {
  Writer w;
  w.u8(verb);
  w.u64(epoch_id);
  try {
    link_.send(self, peer, w.bytes(), [this, peer](ByteView payload) {
      Reader r(payload);
      const uint8_t v = r.u8();
      const uint64_t id = r.u64();
      r.expect_done();
      Node& n = node(peer);
      ensure_alive(n);
      // A commit that finds no staged state is an orphan: the node
      // restarted between stage and commit, and its copy stays stale
      // until anti-entropy or read-repair catches it up.
      if (!apply_epoch_decision(n, id, v == kEpochCommit) && v == kEpochCommit)
        m_.epoch_commit_orphans->inc();
    });
  } catch (const TransportError&) {
    // The verdict is already in the coordinator's decision log, the one
    // record the recovery resolver reads, so nothing parks. A dead
    // peer's staged state died with it: a commit it misses is an orphan.
    if (verb == kEpochCommit && !alive(peer)) m_.epoch_commit_orphans->inc();
  }
}

bool Cluster::apply_epoch_decision(Node& n, uint64_t epoch_id, bool commit) {
  {
    std::lock_guard<std::mutex> lock(n.mu);
    n.decisions[epoch_id] = commit ? kVerdictCommit : kVerdictAbort;
  }
  const bool had_staged = commit ? n.store->commit_reencrypt(epoch_id).has_value()
                                 : n.store->abort_reencrypt(epoch_id);
  // Epoch decisions are the events a 2PC post-mortem needs: which
  // verdict reached which node, and whether staged state was there to
  // apply it to (a commit with no staged state is the orphan case).
  if (telemetry::FlightRegistry::armed())
    telemetry::FlightRegistry::global().record_event(
        n.name, telemetry::FlightEntry::Kind::kEpochDecision,
        commit ? "commit" : "abort",
        "epoch_id=" + std::to_string(epoch_id) +
            (had_staged ? " applied" : " no_staged_state"));
  return had_staged;
}

bool Cluster::epoch_in_flight(uint64_t epoch_id) const {
  std::lock_guard<std::mutex> g(active_epochs_mu_);
  return active_epochs_.contains(epoch_id);
}

void Cluster::stage_epoch(const std::string& name, uint64_t epoch_id,
                          ByteView epoch_wire) {
  Node& n = node(name);
  ensure_alive(n);
  const EpochPayload epoch = decode_epoch(*grp_, epoch_wire);
  n.store->stage_reencrypt(epoch_id, epoch.uk, epoch.infos);
}

void Cluster::handle_epoch(const std::string& self, ByteView epoch_wire) {
  Node& coord = node(self);
  ensure_alive(coord);
  m_.epochs_2pc->inc();
  const uint64_t epoch_id = next_epoch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Mark the epoch in flight so the recovery resolver never presumes
  // abort on a 2PC that is still executing; removed on every exit path.
  {
    std::lock_guard<std::mutex> g(active_epochs_mu_);
    active_epochs_.insert(epoch_id);
  }
  struct ActiveEpochGuard {
    Cluster* c;
    uint64_t id;
    ~ActiveEpochGuard() {
      std::lock_guard<std::mutex> g(c->active_epochs_mu_);
      c->active_epochs_.erase(id);
    }
  } active_guard{this, epoch_id};
  telemetry::Span span = telemetry::Tracer::global().start_span("cluster.epoch_2pc");
  if (span.active()) {
    span.attr("coordinator", self);
    span.attr("node_id", self);
    span.attr("epoch_id", epoch_id);
  }

  // ---- Phase 1: stage on every node, the coordinator first. Each node
  // re-encrypts only the files it holds; the staged copies touch no
  // store until phase 2. A dead peer aborts the epoch before any node
  // re-encrypts a slot, and again at its turn should it die meanwhile.
  std::vector<std::string> staged_nodes;
  const auto require_alive = [this](const std::string& peer) {
    if (!alive(peer))
      throw TransportError(TransportError::Kind::kLost,
                           "cluster: cannot stage epoch on dead node '" + peer + "'");
  };
  try {
    for (const std::string& peer : names_) require_alive(peer);
    stage_epoch(self, epoch_id, epoch_wire);
    staged_nodes.push_back(self);
    for (const std::string& peer : names_) {
      if (peer == self) continue;
      require_alive(peer);
      Writer w;
      w.u8(kEpochStage);
      w.u64(epoch_id);
      w.var_bytes(epoch_wire);
      link_.send(self, peer, w.bytes(), [this, peer](ByteView payload) {
        Reader r(payload);
        if (r.u8() != kEpochStage)
          throw SchemeError("cluster: bad epoch control verb");
        const uint64_t id = r.u64();
        const Bytes wire = r.var_bytes();
        r.expect_done();
        stage_epoch(peer, id, wire);
      });
      staged_nodes.push_back(peer);
    }
    // Crash point "staged": all nodes staged, no decision recorded yet.
    // A hook that kills this coordinator and throws leaves its peers
    // staged-open with nothing in any decision log — the presumed-abort
    // case the recovery resolver must handle.
    if (epoch_fault_hook_) epoch_fault_hook_(epoch_id, "staged");
  } catch (...) {
    if (!alive(self)) {
      // The coordinator crashed mid-epoch: a dead node sends nothing,
      // so no abort controls go out. Peers stay staged until recovery
      // resolution presumes abort from the missing decision record.
      if (span.active()) span.attr("outcome", "coordinator_crashed");
      throw;
    }
    // ---- Abort: record the verdict, then discard every staged copy so
    // all stores stay byte-identical to before the epoch, and rethrow.
    // A TransportError keeps the epoch message parked at the
    // coordinator, so it replays (and eventually commits everywhere)
    // once the cluster heals.
    m_.epoch_aborts->inc();
    for (const std::string& staged : staged_nodes) {
      if (staged == self) {
        apply_epoch_decision(coord, epoch_id, /*commit=*/false);
        continue;
      }
      send_epoch_control(self, staged, kEpochAbort, epoch_id);
    }
    if (span.active()) span.attr("outcome", "aborted");
    throw;
  }

  // ---- Decision record (presumed-abort write-ahead): the commit
  // verdict lands in the coordinator's decision log — which survives
  // kill_node — before any commit applies, so peers can resolve the
  // epoch even if the coordinator dies right here.
  {
    std::lock_guard<std::mutex> lock(coord.mu);
    coord.decisions[epoch_id] = kVerdictCommit;
  }
  // Crash point "decided": decision durable, nothing committed yet.
  if (epoch_fault_hook_) epoch_fault_hook_(epoch_id, "decided");

  // ---- Phase 2: every node staged; commit everywhere, the local commit
  // first. A peer the commit misses stays staged until a read, a flush
  // or a rejoin resolves it from the decision log.
  apply_epoch_decision(coord, epoch_id, /*commit=*/true);
  for (const std::string& peer : names_) {
    if (peer == self) continue;
    send_epoch_control(self, peer, kEpochCommit, epoch_id);
  }
  m_.epoch_commits->inc();
  if (span.active()) {
    span.attr("staged_nodes", static_cast<uint64_t>(staged_nodes.size()));
    span.attr("outcome", "committed");
  }
}

// ----------------------------------------------------- inspection --

std::string Cluster::dump_flight_recorder(const std::string& name) const {
  return telemetry::FlightRegistry::global().dump(name);
}

NodeHealth Cluster::node_health(const std::string& name) const {
  const Node& n = node(name);
  NodeHealth h;
  h.node = name;
  h.store = n.store->stats();
  h.replication_lag = recovery_->hint_count(name);
  std::lock_guard<std::mutex> lock(n.mu);
  h.alive = n.alive;
  return h;
}

ClusterStats Cluster::stats() const {
  ClusterStats s;
  s.nodes = nodes_.size();
  s.alive = alive_count();
  s.replication = config_.replication;
  s.replication_ops_sent = m_.replication_ops->value();
  s.replication_ops_applied = m_.replication_applied->value();
  s.read_repairs = m_.read_repairs->value();
  s.quorum_reads = m_.quorum_reads->value();
  s.quorum_failures = m_.quorum_failures->value();
  s.epochs_2pc = m_.epochs_2pc->value();
  s.epoch_commits = m_.epoch_commits->value();
  s.epoch_aborts = m_.epoch_aborts->value();
  s.epoch_commit_orphans = m_.epoch_commit_orphans->value();
  for (const auto& n : nodes_) s.store_totals += n->store->stats();
  return s;
}

uint64_t Cluster::total_reencrypted_slots() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n->store->stats().reencrypted_slots;
  return total;
}

}  // namespace maabe::cloud
