// HashRing placement and the DurableLink/replication wire plumbing the
// cluster is built from (DESIGN.md §13).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloud/replication.h"
#include "cloud/ring.h"
#include "common/errors.h"

namespace maabe::cloud {
namespace {

std::vector<std::string> four_nodes() {
  return {"node:0", "node:1", "node:2", "node:3"};
}

TEST(HashRingTest, PositionIsDeterministic) {
  EXPECT_EQ(HashRing::position("f1"), HashRing::position("f1"));
  EXPECT_NE(HashRing::position("f1"), HashRing::position("f2"));
}

TEST(HashRingTest, RejectsBadMembership) {
  EXPECT_THROW(HashRing({}, 1), SchemeError);
  EXPECT_THROW(HashRing({"a", ""}, 1), SchemeError);
  EXPECT_THROW(HashRing({"a", "b", "a"}, 1), SchemeError);
}

TEST(HashRingTest, ReplicationIsClamped) {
  EXPECT_EQ(HashRing({"a", "b"}, 0).replication(), 1u);
  EXPECT_EQ(HashRing({"a", "b"}, 9).replication(), 2u);
}

TEST(HashRingTest, PreferenceOrderIsAPermutationOfNodes) {
  const HashRing ring(four_nodes(), 2);
  for (int i = 0; i < 50; ++i) {
    const auto order = ring.preference_order("file-" + std::to_string(i));
    EXPECT_EQ(std::set<std::string>(order.begin(), order.end()).size(), 4u);
    EXPECT_EQ(order.size(), 4u);
  }
}

TEST(HashRingTest, ReplicaSetIsPreferencePrefix) {
  const HashRing ring(four_nodes(), 3);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "file-" + std::to_string(i);
    const auto order = ring.preference_order(key);
    const auto replicas = ring.replicas_for(key);
    ASSERT_EQ(replicas.size(), 3u);
    for (size_t j = 0; j < replicas.size(); ++j) EXPECT_EQ(replicas[j], order[j]);
    EXPECT_EQ(ring.primary_for(key), order.front());
  }
}

TEST(HashRingTest, PlacementIsDeterministic) {
  const HashRing a(four_nodes(), 2);
  const HashRing b(four_nodes(), 2);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "file-" + std::to_string(i);
    EXPECT_EQ(a.replicas_for(key), b.replicas_for(key));
  }
}

TEST(HashRingTest, VirtualNodesBalanceTheKeyspace) {
  const HashRing ring(four_nodes(), 1);
  std::map<std::string, int> primaries;
  const int keys = 4000;
  for (int i = 0; i < keys; ++i) primaries[ring.primary_for("key-" + std::to_string(i))]++;
  // With 64 vnodes per node the largest share stays within a small
  // factor of the 25% mean; a broken hash or walk collapses onto one
  // node and fails this hard.
  for (const std::string& name : four_nodes()) {
    EXPECT_GT(primaries[name], keys / 10) << name << " starved";
    EXPECT_LT(primaries[name], keys / 2) << name << " overloaded";
  }
}

TEST(HashRingTest, AddingANodeMovesOnlyAFractionOfKeys) {
  const HashRing before(four_nodes(), 1);
  auto grown = four_nodes();
  grown.push_back("node:4");
  const HashRing after(grown, 1);
  const int keys = 2000;
  int moved = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (before.primary_for(key) != after.primary_for(key)) ++moved;
  }
  // Consistent hashing: ~1/5 of the keyspace should move to the new
  // node; full rehashing would move ~4/5.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, keys / 2);
}

// ------------------------------------------------------ wire formats --

TEST(ReplicationWireTest, OpRoundTrip) {
  ReplicationOp op;
  op.file_id = "records/f 1";
  op.version = 42;
  op.hash = bytes_of("0123456789abcdef0123456789abcdef");
  op.wire = bytes_of("serialized stored file");
  const ReplicationOp back = decode_replication_op(encode_replication_op(op));
  EXPECT_EQ(back.file_id, op.file_id);
  EXPECT_EQ(back.version, op.version);
  EXPECT_EQ(back.hash, op.hash);
  EXPECT_EQ(back.wire, op.wire);
}

TEST(ReplicationWireTest, FetchReplyRoundTrip) {
  FetchReply miss;
  const FetchReply miss_back = decode_fetch_reply(encode_fetch_reply(miss));
  EXPECT_FALSE(miss_back.found);
  EXPECT_EQ(miss_back.version, 0u);

  FetchReply hit;
  hit.found = true;
  hit.version = 7;
  hit.hash = bytes_of("hash");
  hit.wire = bytes_of("bytes");
  const FetchReply hit_back = decode_fetch_reply(encode_fetch_reply(hit));
  EXPECT_TRUE(hit_back.found);
  EXPECT_EQ(hit_back.version, 7u);
  EXPECT_EQ(hit_back.hash, hit.hash);
  EXPECT_EQ(hit_back.wire, hit.wire);
}

TEST(ReplicationWireTest, MalformedInputIsTyped) {
  EXPECT_THROW(decode_replication_op(bytes_of("junk")), WireError);
  EXPECT_THROW(decode_fetch_reply(bytes_of("junk")), WireError);
  // Swapped tags must not cross-decode.
  FetchReply reply;
  EXPECT_THROW(decode_replication_op(encode_fetch_reply(reply)), WireError);
}

// ------------------------------------------------------- DurableLink --

FaultSpec down_channel() {
  FaultSpec spec;
  spec.drop = 1.0;
  return spec;
}

TEST(DurableLinkTest, ParksOnFailureAndReplaysInFifoOrder) {
  LoopbackTransport t{FaultPlan(1)};  // seeded: specs apply (drop=1 is sure)
  t.faults().set_channel("a", "b", down_channel());
  ReliableLink link(t);
  DurableLink durable(link);
  std::vector<int> order;

  EXPECT_FALSE(durable.send_or_park("a", "b", bytes_of("1"),
                                    [&](ByteView) { order.push_back(1); }, "first"));
  EXPECT_FALSE(durable.send_or_park("a", "b", bytes_of("2"),
                                    [&](ByteView) { order.push_back(2); }, "second"));
  EXPECT_EQ(durable.pending_for("b"), 2u);
  EXPECT_EQ(durable.pending_labels("b"), (std::vector<std::string>{"first", "second"}));
  // Other destinations are unaffected by b's outage.
  EXPECT_TRUE(durable.send_or_park("a", "c", bytes_of("3"),
                                   [&](ByteView) { order.push_back(3); }, "other"));
  EXPECT_EQ(durable.pending_count(), 2u);
  EXPECT_EQ(durable.pending_by_destination(),
            (std::map<std::string, size_t>{{"b", 2}}));

  t.faults().set_channel("a", "b", FaultSpec());
  EXPECT_EQ(durable.flush_all(), 0u);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(durable.pending_for("b"), 0u);
}

TEST(DurableLinkTest, FlushStopsAtFirstFailureToPreserveOrder) {
  LoopbackTransport t{FaultPlan(1)};
  t.faults().set_channel("a", "b", down_channel());
  ReliableLink link(t);
  DurableLink durable(link);
  std::vector<int> order;
  durable.send_or_park("a", "b", bytes_of("1"), [&](ByteView) { order.push_back(1); },
                       "first");
  durable.send_or_park("a", "b", bytes_of("2"), [&](ByteView) { order.push_back(2); },
                       "second");

  // Heal the channel but script the next send (the head replay) to fail:
  // the queue must stop there rather than deliver "second" first.
  t.faults().set_channel("a", "b", FaultSpec());
  t.faults().fail_next("a", "b", link.policy().max_attempts);
  EXPECT_EQ(durable.flush_all(), 2u);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(durable.flush_all(), 0u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(DurableLinkTest, LaterSendsQueueBehindParkedWork) {
  LoopbackTransport t{FaultPlan(1)};
  t.faults().set_channel("a", "b", down_channel());
  ReliableLink link(t);
  DurableLink durable(link);
  std::vector<int> order;
  durable.send_or_park("a", "b", bytes_of("1"), [&](ByteView) { order.push_back(1); },
                       "first");
  // Channel heals, but a send behind a non-empty queue must not jump it:
  // send_or_park flushes first, so both deliver — in order.
  t.faults().set_channel("a", "b", FaultSpec());
  EXPECT_TRUE(durable.send_or_park("a", "b", bytes_of("2"),
                                   [&](ByteView) { order.push_back(2); }, "second"));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(durable.pending_count(), 0u);
}

}  // namespace
}  // namespace maabe::cloud
