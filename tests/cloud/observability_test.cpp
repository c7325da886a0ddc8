// Cluster-wide observability (DESIGN.md §16): trace-context propagation
// over the Transport frame, per-node flight recorder, and the
// aggregated status document. The acceptance scenario of ISSUE 9: a
// fault-injected CLUSTER revocation epoch (scripted drops + one replica
// kill) yields exactly one trace tree rooted at the coordinator's
// operation, with every surviving node's spans linked and tagged
// node_id — and the parked epoch's replay after the replica rejoins
// continues the SAME trace.
// Registered under the `observability` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/system.h"
#include "common/errors.h"
#include "common/wire.h"
#include "crypto/sha256.h"
#include "engine/engine.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/slo.h"
#include "telemetry/trace.h"

namespace maabe::cloud {
namespace {

using pairing::Group;
using telemetry::FlightEntry;
using telemetry::FlightRegistry;
using telemetry::SpanRecord;
using telemetry::Tracer;

/// Installs a vector-collecting sink for the scope's lifetime.
class SpanCollector {
 public:
  SpanCollector() {
    Tracer::global().enable(
        [this](const SpanRecord& rec) { records_.push_back(rec); });
  }
  ~SpanCollector() { Tracer::global().disable(); }
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  std::vector<SpanRecord> records_;
};

std::string attr_of(const SpanRecord& rec, const std::string& key) {
  for (const auto& [k, v] : rec.attrs) {
    if (k == key) return v;
  }
  return "";
}

// -------------------------------------------- frame trace triple -----

Frame traced_frame() {
  Frame f;
  f.from = "node:0";
  f.to = "node:1";
  f.request_id = 9;
  f.seq = 3;
  f.trace_id = 0xDEADBEEFCAFEF00Dull;
  f.parent_span_id = 0x1122334455667788ull;
  f.origin_node = "node:0";
  f.payload = bytes_of("stage epoch 7");
  return f;
}

TEST(FrameTrace, RoundTripPreservesTraceTriple) {
  const Frame f = traced_frame();
  ASSERT_TRUE(f.has_trace());
  const Frame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.trace_id, f.trace_id);
  EXPECT_EQ(g.parent_span_id, f.parent_span_id);
  EXPECT_EQ(g.origin_node, f.origin_node);
  EXPECT_EQ(g.payload, f.payload);
  EXPECT_TRUE(g.has_trace());
}

TEST(FrameTrace, UntracedFrameStaysUntracedAndSmaller) {
  Frame f = traced_frame();
  f.trace_id = 0;
  f.parent_span_id = 0;
  f.origin_node.clear();
  ASSERT_FALSE(f.has_trace());
  const Bytes wire = encode_frame(f);
  const Frame g = decode_frame(wire);
  EXPECT_FALSE(g.has_trace());
  EXPECT_EQ(g.trace_id, 0u);
  EXPECT_EQ(g.origin_node, "");
  // The triple is genuinely optional on the wire, not zero-filled.
  EXPECT_LT(wire.size(), encode_frame(traced_frame()).size());
}

/// Re-frames `body` with a fresh 4-byte checksum, so decode_frame gets
/// past integrity verification and into structural validation.
Bytes with_checksum(Bytes body) {
  Bytes sum = crypto::Sha256::digest(body);
  body.insert(body.end(), sum.begin(), sum.begin() + 4);
  return body;
}

Writer frame_header(const Frame& f) {
  Writer w;
  w.u8(0x7A);
  w.str(f.from);
  w.str(f.to);
  w.u64(f.request_id);
  w.u64(f.seq);
  return w;
}

TEST(FrameTrace, UnknownFlagBitsAreMalformed) {
  const Frame f = traced_frame();
  Writer w = frame_header(f);
  w.u8(0x02);  // not a defined flag
  w.var_bytes(f.payload);
  try {
    (void)decode_frame(with_checksum(w.take()));
    FAIL() << "unknown flag bits accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kMalformed);
  }
}

TEST(FrameTrace, TraceFlagWithNullSpanIdIsMalformed) {
  const Frame f = traced_frame();
  Writer w = frame_header(f);
  w.u8(0x01);                // trace triple present...
  w.u64(f.trace_id);
  w.u64(0);                  // ...but span id 0 means "no span"
  w.str(f.origin_node);
  w.var_bytes(f.payload);
  try {
    (void)decode_frame(with_checksum(w.take()));
    FAIL() << "null propagated span id accepted";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kMalformed);
  }
}

// ------------------------------------------ cluster acceptance -------

std::unique_ptr<CloudSystem> make_system(std::shared_ptr<const Group> grp,
                                         size_t nodes, size_t replication) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.replication = replication;
  return std::make_unique<CloudSystem>(grp, "observability",
                                       std::make_unique<LoopbackTransport>(),
                                       RetryPolicy(), cfg);
}

void enroll(CloudSystem& sys) {
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const char* uid : {"alice", "bob"}) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor"});
    sys.issue_user_key("Med", uid, "hosp");
  }
}

/// Arms the flight recorder for the fixture's lifetime and attaches a
/// per-node dump when the test fails, so a flaky chaos interleaving
/// ships its own post-mortem (ISSUE 9 acceptance).
class ClusterObservability : public ::testing::Test {
 protected:
  void TearDown() override {
    if (HasFailure() && sys_) {
      for (const std::string& name : sys_->cluster().node_names()) {
        std::cerr << sys_->cluster().dump_flight_recorder(name);
      }
    }
  }

  telemetry::ArmedFlightRecorder armed_;
  std::unique_ptr<CloudSystem> sys_;
};

/// Index a record set and return the unique root among `records`,
/// asserting exactly one span has parent 0.
const SpanRecord* single_root(const std::vector<SpanRecord>& records,
                              std::map<uint64_t, const SpanRecord*>* by_id) {
  const SpanRecord* root = nullptr;
  for (const SpanRecord& rec : records) {
    (*by_id)[rec.span_id] = &rec;
    if (rec.parent_id == 0) {
      EXPECT_EQ(root, nullptr)
          << "second root '" << rec.name << "' next to '"
          << (root ? root->name : "") << "'";
      root = &rec;
    }
  }
  return root;
}

TEST_F(ClusterObservability, FaultInjectedClusterEpochYieldsOneTraceTree) {
  auto grp = Group::test_small();
  sys_ = make_system(grp, 3, 2);
  enroll(*sys_);
  for (const char* f : {"f1", "f2", "f3", "f4"}) {
    sys_->upload("hosp", f, {{"a", bytes_of(std::string("rec ") + f), "Doctor@Med"}});
  }

  const std::string coord = sys_->cluster().coordinator();
  ASSERT_EQ(coord, "node:0");
  const std::string survivor = "node:1";
  const std::string victim = "node:2";
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys_->transport());
  loopback.faults().fail_next(coord, survivor, 2);

  // ---- Traced window 1: the epoch against a degraded cluster --------
  std::vector<SpanRecord> records;
  size_t committed = 0;
  // The victim dies while the survivor stages its first slot, so the
  // coordinator has staged and sent the survivor its stage frame (past
  // the two scripted drops) before the 2PC reaches the victim. A victim
  // dead from the start would abort the epoch before any node stages.
  Cluster& cluster = sys_->cluster();
  CloudServer& survivor_store = cluster.node_store(survivor);
  ASSERT_FALSE(survivor_store.file_ids().empty()) << "the survivor stages nothing";
  survivor_store.set_reencrypt_fault_hook(
      [&cluster, victim](const std::string&) { cluster.kill_node(victim); });
  {
    SpanCollector sink;
    committed = sys_->revoke_attribute("Med", "bob", "Doctor");
    records = sink.records();
  }
  survivor_store.set_reencrypt_fault_hook(nullptr);
  ASSERT_FALSE(cluster.alive(victim));
  // The victim cannot stage, so the 2PC aborts everywhere and the epoch
  // delivery stays parked; nothing commits during this call.
  EXPECT_EQ(committed, 0u);
  ASSERT_FALSE(records.empty());

  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* root = single_root(records, &by_id);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "system.revoke_attribute");

  // ONE trace tree: every span carries the root's trace id and every
  // parent chain terminates at the root.
  for (const SpanRecord& rec : records) {
    EXPECT_EQ(rec.trace_id, root->trace_id) << rec.name;
    const SpanRecord* cur = &rec;
    int hops = 0;
    while (cur->parent_id != 0 && hops < 64) {
      const auto it = by_id.find(cur->parent_id);
      ASSERT_NE(it, by_id.end()) << rec.name << ": dangling parent";
      cur = it->second;
      ++hops;
    }
    EXPECT_EQ(cur->span_id, root->span_id) << rec.name << ": chain misses root";
  }

  // Every surviving node contributed spans, each tagged node_id. The
  // 2PC ran at the coordinator; the survivor's spans joined through the
  // rehydrated wire context.
  std::set<std::string> node_ids;
  std::vector<const SpanRecord*> epoch_2pc;
  size_t scripted = 0;
  for (const SpanRecord& rec : records) {
    const std::string nid = attr_of(rec, "node_id");
    if (!nid.empty()) node_ids.insert(nid);
    if (rec.name == "cluster.epoch_2pc") epoch_2pc.push_back(&rec);
    if (rec.name == "transport.frame" && attr_of(rec, "from") == coord &&
        attr_of(rec, "to") == survivor &&
        attr_of(rec, "outcome") == "scripted_failure") {
      ++scripted;
    }
  }
  // The parked delivery retries, and every retry is a fresh 2PC attempt
  // — all still inside the one trace, all run by the coordinator.
  ASSERT_GE(epoch_2pc.size(), 1u);
  for (const SpanRecord* e : epoch_2pc) {
    EXPECT_EQ(attr_of(*e, "coordinator"), coord);
    EXPECT_EQ(attr_of(*e, "node_id"), coord);
  }
  EXPECT_TRUE(node_ids.count(coord)) << "no span tagged with the coordinator";
  EXPECT_TRUE(node_ids.count(survivor)) << "no span tagged with the survivor";
  EXPECT_EQ(scripted, 2u) << "both scripted drops must appear as frame spans";

  // The flight recorder retained the typed story: scripted faults in
  // the survivor's ring, the abort decision in the coordinator's.
  bool survivor_fault = false;
  for (const FlightEntry& e : FlightRegistry::global().entries(survivor)) {
    survivor_fault |= e.kind == FlightEntry::Kind::kFaultInjected &&
                      e.name == "scripted_failure";
  }
  EXPECT_TRUE(survivor_fault);
  bool coord_abort = false;
  for (const FlightEntry& e : FlightRegistry::global().entries(coord)) {
    coord_abort |= e.kind == FlightEntry::Kind::kEpochDecision && e.name == "abort";
  }
  EXPECT_TRUE(coord_abort);
  EXPECT_NE(sys_->cluster().dump_flight_recorder(coord).find(
                "flight-recorder " + coord),
            std::string::npos);

  // ---- Traced window 2: rejoin + replay continues the SAME trace ----
  std::vector<SpanRecord> replay;
  {
    SpanCollector sink;
    sys_->cluster().restart_node(victim);
    for (int i = 0; i < 20 && sys_->flush_pending() > 0; ++i) {
    }
    replay = sink.records();
  }
  EXPECT_EQ(sys_->health().pending_deliveries, 0u);
  EXPECT_GE(sys_->cluster().stats().epoch_commits, 1u);
  EXPECT_GT(sys_->cluster().total_reencrypted_slots(), 0u);

  // The parked epoch replays under its ORIGINATING context: the replay
  // window's 2PC (and its replay wrapper span) belong to the first
  // window's trace, and no second revocation root ever appears.
  bool replay_wrapper_in_trace = false;
  bool epoch_in_original_trace = false;
  for (const SpanRecord& rec : replay) {
    EXPECT_NE(rec.name, "system.revoke_attribute");
    if (rec.name == "durable.replay" && rec.trace_id == root->trace_id) {
      replay_wrapper_in_trace = true;
    }
    if (rec.name == "cluster.epoch_2pc") {
      EXPECT_EQ(rec.trace_id, root->trace_id)
          << "replayed epoch lost its originating trace";
      epoch_in_original_trace = true;
    }
  }
  EXPECT_TRUE(replay_wrapper_in_trace);
  EXPECT_TRUE(epoch_in_original_trace);

  // The commit verdict reached the rings once the cluster healed.
  bool commit_seen = false;
  for (const FlightEntry& e : FlightRegistry::global().entries(coord)) {
    commit_seen |= e.kind == FlightEntry::Kind::kEpochDecision && e.name == "commit";
  }
  EXPECT_TRUE(commit_seen);
}

TEST_F(ClusterObservability, DedupedRedeliveryIsALeafEventNotASubtree) {
  LoopbackTransport transport{FaultPlan(1234)};
  FaultSpec spec;
  spec.duplicate = 1.0;  // every frame arrives twice
  transport.faults().set_channel("a", "b", spec);
  ReliableLink link(transport);

  SpanCollector sink;
  int applies = 0;
  const Bytes payload = bytes_of("idempotent payload");
  link.send("a", "b", payload, [&](ByteView) { ++applies; });
  EXPECT_EQ(applies, 1);  // second copy dedup'd by request id

  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* root = single_root(sink.records(), &by_id);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "transport.send");

  const SpanRecord* dup = nullptr;
  for (const SpanRecord& rec : sink.records()) {
    if (rec.name == "transport.dropped_duplicate") {
      ASSERT_EQ(dup, nullptr) << "duplicate suppressed more than once";
      dup = &rec;
    }
  }
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->trace_id, root->trace_id);
  EXPECT_EQ(attr_of(*dup, "node_id"), "b");
  // Leaf, parented on the rehydrated recv span of the redelivery — the
  // duplicate contributes an event, not a second application subtree.
  const auto parent = by_id.find(dup->parent_id);
  ASSERT_NE(parent, by_id.end());
  EXPECT_EQ(parent->second->name, "transport.recv");
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it (the bench/e2e ledger's rule).
std::map<uint64_t, uint64_t> self_times(const std::vector<SpanRecord>& records) {
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& rec : records) children[rec.parent_id].push_back(&rec);
  std::map<uint64_t, uint64_t> out;
  for (const SpanRecord& rec : records) {
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    for (const SpanRecord* kid : children[rec.span_id]) {
      const uint64_t a = std::max(kid->start_ns, rec.start_ns);
      const uint64_t b = std::min(kid->end_ns, rec.end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0, reach = 0;
    for (const auto& [a, b] : cover) {
      const uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const uint64_t duration = rec.end_ns - rec.start_ns;
    out[rec.span_id] = duration - std::min(covered, duration);
  }
  return out;
}

TEST_F(ClusterObservability, ReceiveNestsInsideItsFrameSoSelfTimesAddUp) {
  auto grp = Group::test_small();
  sys_ = make_system(grp, 3, 2);
  enroll(*sys_);
  sys_->upload("hosp", "f1", {{"a", bytes_of("alpha"), "Doctor@Med"}});

  std::vector<SpanRecord> records;
  {
    SpanCollector sink;
    const auto opened = sys_->download("alice", "f1");
    EXPECT_EQ(opened.at("a"), bytes_of("alpha"));
    records = sink.records();
  }
  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* root = single_root(records, &by_id);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "system.download");

  // Every delivered frame's receiving side continues the trace INSIDE
  // that transmission attempt: recv's parent is the frame, never the
  // sender's span next to it.
  size_t recvs = 0, delivered = 0;
  for (const SpanRecord& rec : records) {
    if (rec.name == "transport.frame" && attr_of(rec, "outcome") == "delivered") ++delivered;
    if (rec.name != "transport.recv") continue;
    ++recvs;
    const auto parent = by_id.find(rec.parent_id);
    ASSERT_NE(parent, by_id.end()) << "recv with a dangling parent";
    EXPECT_EQ(parent->second->name, "transport.frame");
    EXPECT_EQ(attr_of(*parent->second, "outcome"), "delivered");
  }
  EXPECT_GT(recvs, 0u);
  EXPECT_EQ(recvs, delivered);

  // Nested spans partition the root's interval, so their self times
  // sum to at most its duration; overlapping siblings would count the
  // shared interval twice.
  uint64_t total = 0;
  for (const auto& [id, ns] : self_times(records)) total += ns;
  EXPECT_LE(total, root->end_ns - root->start_ns);
}

/// The abe.subgroup_check spans among `records`: how many, and the sum
/// of their items (points checked). Each must sit directly inside the
/// transport.recv of the message whose key material it checks.
std::pair<size_t, uint64_t> subgroup_checks(const std::vector<SpanRecord>& records) {
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& rec : records) by_id[rec.span_id] = &rec;
  size_t spans = 0;
  uint64_t items = 0;
  for (const SpanRecord& rec : records) {
    if (rec.name != "abe.subgroup_check") continue;
    ++spans;
    items += std::stoull(attr_of(rec, "items"));
    const auto parent = by_id.find(rec.parent_id);
    EXPECT_TRUE(parent != by_id.end() && parent->second->name == "transport.recv")
        << "subgroup check outside a receive";
  }
  return {spans, items};
}

TEST_F(ClusterObservability, SubgroupChecksCountEveryKeyPointAReceiverTakes) {
  auto grp = Group::test_small();
  sys_ = make_system(grp, 3, 2);
  const std::set<std::string> names = {"A", "B", "C", "D", "E"};
  for (const char* aid : {"Med", "Gov"}) sys_->add_authority(aid, names);
  sys_->add_owner("hosp");
  {
    // One batch per authority: its five attribute keys.
    SpanCollector sink;
    for (const char* aid : {"Med", "Gov"}) sys_->publish_authority_keys(aid, "hosp");
    EXPECT_EQ(subgroup_checks(sink.records()), std::make_pair(size_t{2}, uint64_t{10}));
  }
  // An enrolment: the user's public key, then one key of 1 + 5 points
  // from each authority, each checked as one batch.
  SpanCollector sink;
  sys_->add_user("alice");
  for (const char* aid : {"Med", "Gov"}) {
    sys_->assign_attributes(aid, "alice", names);
    sys_->issue_user_key(aid, "alice", "hosp");
  }
  EXPECT_EQ(subgroup_checks(sink.records()),
            std::make_pair(size_t{3}, uint64_t{1 + 2 * (1 + names.size())}));
}

// A revocation applies its users' key updates as one batch, after the
// deliveries: one entities.key_updates span (keys = receiving users,
// update_keys = distinct UK1s) holding the one engine batch of every
// K_x plus UK1's check, and no user's receive runs engine work.
TEST_F(ClusterObservability, RevokeAppliesItsUsersKeyUpdatesAsOneBatch) {
  auto grp = Group::test_small();
  sys_ = make_system(grp, 3, 2);
  sys_->add_authority("Med", {"A", "B", "C"});
  sys_->add_owner("hosp");
  sys_->publish_authority_keys("Med", "hosp");
  const std::vector<std::set<std::string>> holds = {{"A"}, {"A", "B"}, {"A", "B", "C"},
                                                    {"B"}, {"C", "A"}};
  uint64_t kx = 0;
  for (size_t i = 0; i < holds.size(); ++i) {
    const std::string uid = "u" + std::to_string(i);
    sys_->add_user(uid);
    sys_->assign_attributes("Med", uid, holds[i]);
    sys_->issue_user_key("Med", uid, "hosp");
    kx += holds[i].size();
  }
  sys_->add_user("rev");
  sys_->assign_attributes("Med", "rev", {"A", "C"});
  sys_->issue_user_key("Med", "rev", "hosp");
  sys_->upload("hosp", "f1", {{"a", bytes_of("alpha"), "A@Med"}});

  std::vector<SpanRecord> records;
  {
    SpanCollector sink;
    EXPECT_GT(sys_->revoke_attribute("Med", "rev", "A"), 0u);
    records = sink.records();
  }
  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* root = single_root(records, &by_id);
  ASSERT_NE(root, nullptr);

  std::vector<const SpanRecord*> batches;
  for (const SpanRecord& rec : records)
    if (rec.name == "entities.key_updates") batches.push_back(&rec);
  ASSERT_EQ(batches.size(), 1u);
  const SpanRecord& batch = *batches.front();
  EXPECT_EQ(batch.parent_id, root->span_id);
  EXPECT_EQ(attr_of(batch, "keys"), std::to_string(holds.size()));
  EXPECT_EQ(attr_of(batch, "update_keys"), "1");
  std::vector<const SpanRecord*> children;
  for (const SpanRecord& rec : records)
    if (rec.parent_id == batch.span_id) children.push_back(&rec);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children.front()->name, "engine.multi_exp_g1");
  EXPECT_EQ(attr_of(*children.front(), "items"), std::to_string(kx + 1));

  size_t user_recvs = 0;
  for (const SpanRecord& rec : records) {
    if (rec.name == "transport.recv" && attr_of(rec, "node_id").starts_with("user:")) ++user_recvs;
    if (!rec.name.starts_with("engine.")) continue;
    for (auto it = by_id.find(rec.parent_id); it != by_id.end();
         it = by_id.find(it->second->parent_id)) {
      const SpanRecord& up = *it->second;
      EXPECT_FALSE(up.name == "transport.recv" && attr_of(up, "node_id").starts_with("user:"))
          << rec.name << " inside " << attr_of(up, "node_id") << "'s receive";
    }
  }
  // Every receiving user's update key and the revoked user's new key.
  EXPECT_EQ(user_recvs, holds.size() + 1);
}

TEST_F(ClusterObservability, ReencryptSlotsNestTheirPairingsSoNoSelfTimeIsNegative) {
  auto grp = Group::test_small();
  sys_ = make_system(grp, 3, 2);
  enroll(*sys_);
  for (const char* f : {"f1", "f2", "f3"}) {
    sys_->upload("hosp", f,
                 {{"a", bytes_of("alpha"), "Doctor@Med"}, {"b", bytes_of("bravo"), "Doctor@Med"}});
  }
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(*grp);
  struct RestoreThreads {
    engine::CryptoEngine& eng;
    int threads;
    ~RestoreThreads() { eng.set_threads(threads); }
  } restore{eng, eng.threads()};

  // One engine thread runs every slot inline on the stage's thread, two
  // run them on pool workers; the tree must nest the same way on both.
  const char* revoked[] = {"alice", "bob"};
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("engine threads " + std::to_string(threads));
    eng.set_threads(threads);
    std::vector<SpanRecord> records;
    {
      SpanCollector sink;
      EXPECT_GT(sys_->revoke_attribute("Med", revoked[threads - 1], "Doctor"), 0u);
      records = sink.records();
    }
    std::map<uint64_t, const SpanRecord*> by_id;
    const SpanRecord* root = single_root(records, &by_id);
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->name, "system.revoke_attribute");

    // Each stage pairs its slots in one engine.pair_batch, which nests
    // inside the stage and counts one item per slot; each slot span
    // sits directly under its stage. Every span whose parent chain
    // reaches a stage lies inside that stage's interval.
    const auto stage_above = [&](const SpanRecord& rec) -> const SpanRecord* {
      for (auto it = by_id.find(rec.parent_id); it != by_id.end();
           it = by_id.find(it->second->parent_id)) {
        if (it->second->name == "server.reencrypt_stage") return it->second;
      }
      return nullptr;
    };
    std::map<uint64_t, size_t> slots_in_stage, pairs_in_stage, batches_in_stage;
    size_t slots = 0;
    for (const SpanRecord& rec : records) {
      if (rec.name == "server.reencrypt_stage") slots_in_stage.try_emplace(rec.span_id, 0);
      const SpanRecord* stage = stage_above(rec);
      if (stage == nullptr) continue;
      EXPECT_GE(rec.start_ns, stage->start_ns) << rec.name;
      EXPECT_LE(rec.end_ns, stage->end_ns) << rec.name;
      if (rec.name == "server.reencrypt_slot") {
        ++slots;
        ++slots_in_stage[stage->span_id];
        EXPECT_EQ(rec.parent_id, stage->span_id);
      }
      if (rec.name == "engine.pair_batch") {
        ++batches_in_stage[stage->span_id];
        pairs_in_stage[stage->span_id] += std::stoull(attr_of(rec, "items"));
      }
      EXPECT_NE(rec.name, "engine.pair") << "a stage pairs its slots in one batch";
    }
    EXPECT_GT(slots, 0u);
    for (const auto& [stage_id, n] : slots_in_stage) {
      if (n == 0) continue;
      EXPECT_EQ(batches_in_stage[stage_id], 1u);
      EXPECT_EQ(pairs_in_stage[stage_id], n);
    }

    // Self time: a span's duration minus its children's. On one thread a
    // well-nested tree keeps it non-negative; a span that overlaps a
    // sibling (its time counted twice under one parent) drives the
    // parent's self time below zero.
    if (threads == 1) {
      std::map<uint64_t, int64_t> self;
      for (const SpanRecord& rec : records) {
        const auto duration = static_cast<int64_t>(rec.end_ns - rec.start_ns);
        self[rec.span_id] += duration;
        if (rec.parent_id != 0) self[rec.parent_id] -= duration;
      }
      for (const SpanRecord& rec : records) {
        EXPECT_GE(self[rec.span_id], 0) << rec.name << " has a negative self time";
      }
    }
  }
}

TEST_F(ClusterObservability, StatusJsonAggregatesClusterHealthAndSlo) {
  auto grp = Group::test_small();
  sys_ = make_system(grp, 3, 2);
  enroll(*sys_);
  sys_->upload("hosp", "f1", {{"a", bytes_of("alpha"), "Doctor@Med"}});

  telemetry::SloPlane plane(telemetry::SloPlane::parse("obs_status_ms=100"));
  plane.observe("obs_status_ms", 5.0, false);
  plane.observe("obs_status_ms", 250.0, false);
  plane.export_gauges();

  sys_->cluster().kill_node("node:2");
  const std::string doc = sys_->status_json();

  // One document: cluster shape, per-node health, queues, SLO gauges.
  EXPECT_NE(doc.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"replication\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"coordinator\":\"node:0\""), std::string::npos);
  for (const char* n : {"node:0", "node:1", "node:2"}) {
    EXPECT_NE(doc.find("\"node\":\"" + std::string(n) + "\""), std::string::npos);
  }
  EXPECT_NE(doc.find("\"alive\":false"), std::string::npos);  // the killed node
  EXPECT_NE(doc.find("\"replication_lag\":"), std::string::npos);
  EXPECT_NE(doc.find("\"pending_deliveries\":"), std::string::npos);
  EXPECT_NE(doc.find("\"staged_epochs\":"), std::string::npos);
  // The exported SLO folds into the document as one object per
  // objective with met/burn/sample fields.
  EXPECT_NE(doc.find("\"obs_status_ms\":{"), std::string::npos);
  const size_t slo_at = doc.find("\"obs_status_ms\":{");
  EXPECT_NE(doc.find("\"met\":", slo_at), std::string::npos);
  EXPECT_NE(doc.find("\"burn_long_x1000\":", slo_at), std::string::npos);
  EXPECT_NE(doc.find("\"samples\":2", slo_at), std::string::npos);
}

}  // namespace
}  // namespace maabe::cloud
