// Transport layer: framing, checksums, deterministic fault injection,
// retry/backoff and receiver-side idempotency.
#include <gtest/gtest.h>

#include "cloud/transport.h"
#include "common/errors.h"

namespace maabe::cloud {
namespace {

Frame sample_frame() {
  Frame f;
  f.from = "owner:hosp";
  f.to = "server";
  f.request_id = 42;
  f.seq = 7;
  f.payload = bytes_of("the quick brown artefact");
  return f;
}

TEST(Frames, RoundTrip) {
  const Frame f = sample_frame();
  const Bytes wire = encode_frame(f);
  const Frame g = decode_frame(wire);
  EXPECT_EQ(g.from, f.from);
  EXPECT_EQ(g.to, f.to);
  EXPECT_EQ(g.request_id, f.request_id);
  EXPECT_EQ(g.seq, f.seq);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(Frames, EveryByteFlipIsDetected) {
  const Bytes wire = encode_frame(sample_frame());
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      Bytes bad = wire;
      bad[pos] ^= mask;
      try {
        (void)decode_frame(bad);
        FAIL() << "flip at " << pos << " not detected";
      } catch (const TransportError& e) {
        EXPECT_EQ(e.kind(), TransportError::Kind::kChecksum) << "pos " << pos;
      }
    }
  }
}

TEST(Frames, TruncationIsDetected) {
  const Bytes wire = encode_frame(sample_frame());
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW((void)decode_frame(ByteView(wire.data(), len)), TransportError)
        << "length " << len;
  }
}

TEST(Frames, TrailingGarbageIsDetected) {
  Bytes wire = encode_frame(sample_frame());
  wire.push_back(0x00);
  EXPECT_THROW((void)decode_frame(wire), TransportError);
}

TEST(FaultPlanTest, SameSeedSameDecisions) {
  FaultSpec spec;
  spec.drop = spec.duplicate = spec.corrupt = spec.ack_loss = spec.delay = 0.3;
  auto run = [&](uint64_t seed) {
    FaultPlan plan(seed);
    plan.set_default(spec);
    std::string trace;
    for (int i = 0; i < 200; ++i) {
      const auto d = plan.decide("a", "b", 100);
      trace += d.drop ? 'D' : '.';
      trace += d.duplicate ? '2' : '.';
      trace += d.corrupt ? 'C' : '.';
      trace += d.ack_loss ? 'A' : '.';
      trace += d.delay_ms > 0 ? 'L' : '.';
      trace += static_cast<char>('0' + d.corrupt_offset % 10);
    }
    return trace;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(FaultPlanTest, ChannelsAreIndependentStreams) {
  // Decisions on channel a->b must not shift when traffic interleaves on
  // another channel.
  FaultSpec spec;
  spec.drop = 0.5;
  FaultPlan lone(99), mixed(99);
  lone.set_default(spec);
  mixed.set_default(spec);
  std::string lone_trace, mixed_trace;
  for (int i = 0; i < 100; ++i) {
    lone_trace += lone.decide("a", "b", 64).drop ? 'D' : '.';
    (void)mixed.decide("c", "d", 64);  // interleaved other-channel traffic
    mixed_trace += mixed.decide("a", "b", 64).drop ? 'D' : '.';
  }
  EXPECT_EQ(lone_trace, mixed_trace);
}

TEST(FaultPlanTest, UnseededPlanIsFaultFree) {
  FaultPlan plan;
  FaultSpec spec;
  spec.drop = 1.0;
  plan.set_default(spec);
  for (int i = 0; i < 10; ++i) {
    const auto d = plan.decide("a", "b", 64);
    EXPECT_FALSE(d.drop || d.duplicate || d.corrupt || d.ack_loss || d.script_failure);
  }
  EXPECT_EQ(plan.injected().total(), 0u);
}

TEST(FaultPlanTest, FailNextScriptsFireFirst) {
  FaultPlan plan;  // even an unseeded plan honours scripts
  plan.fail_next("a", "b", 2);
  EXPECT_TRUE(plan.decide("a", "b", 64).script_failure);
  EXPECT_TRUE(plan.decide("a", "b", 64).script_failure);
  EXPECT_FALSE(plan.decide("a", "b", 64).script_failure);
  EXPECT_EQ(plan.injected().script_failures, 2u);
}

TEST(LoopbackTest, FaultFreeDeliveryMetersPayloadAndFrame) {
  LoopbackTransport t;
  const Bytes payload = bytes_of("hello");
  int called = 0;
  t.deliver("a", "b", 5, payload, [&](uint64_t rid, ByteView p) {
    EXPECT_EQ(rid, 5u);
    EXPECT_EQ(Bytes(p.begin(), p.end()), payload);
    ++called;
  });
  EXPECT_EQ(called, 1);
  const ChannelStats s = t.meter().stats("a", "b");
  EXPECT_EQ(s.payload_bytes, payload.size());
  EXPECT_GT(s.frame_bytes, payload.size());  // header + checksum overhead
  EXPECT_EQ(s.frames, 1u);
  EXPECT_EQ(s.deliveries, 1u);
  EXPECT_EQ(s.faults(), 0u);
}

TEST(LoopbackTest, DropNeverReachesTheSink) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.drop = 1.0;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  int called = 0;
  try {
    t.deliver("a", "b", 1, bytes_of("x"), [&](uint64_t, ByteView) { ++called; });
    FAIL() << "drop did not throw";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kLost);
  }
  EXPECT_EQ(called, 0);
  EXPECT_EQ(t.meter().stats("a", "b").drops, 1u);
  EXPECT_EQ(t.faults().injected().drops, 1u);
}

TEST(LoopbackTest, CorruptionSurfacesAsChecksumError) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.corrupt = 1.0;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  for (int i = 0; i < 20; ++i) {  // random flip position each time
    try {
      t.deliver("a", "b", 1, bytes_of("some payload bytes"),
                [](uint64_t, ByteView) { FAIL() << "corrupt frame delivered"; });
      FAIL() << "corruption not detected";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportError::Kind::kChecksum);
    }
  }
  EXPECT_EQ(t.meter().stats("a", "b").corruptions, 20u);
}

TEST(LoopbackTest, DuplicateDeliversTwice) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.duplicate = 1.0;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  int called = 0;
  t.deliver("a", "b", 1, bytes_of("x"), [&](uint64_t, ByteView) { ++called; });
  EXPECT_EQ(called, 2);
  EXPECT_EQ(t.meter().stats("a", "b").deliveries, 2u);
  EXPECT_EQ(t.meter().stats("a", "b").duplicates, 1u);
}

TEST(LoopbackTest, AckLossDeliversThenFails) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.ack_loss = 1.0;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  int called = 0;
  EXPECT_THROW(
      t.deliver("a", "b", 1, bytes_of("x"), [&](uint64_t, ByteView) { ++called; }),
      TransportError);
  EXPECT_EQ(called, 1);  // the receiver DID get it
}

TEST(LoopbackTest, DelayAdvancesVirtualClock) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.delay = 1.0;
  spec.delay_ms = 40;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  t.deliver("a", "b", 1, bytes_of("x"), [](uint64_t, ByteView) {});
  EXPECT_EQ(t.now_ms(), 40u);
  EXPECT_EQ(t.meter().stats("a", "b").delay_ms, 40u);
}

TEST(ReliableLinkTest, RetriesUntilSuccess) {
  LoopbackTransport t;
  t.faults().fail_next("a", "b", 2);
  ReliableLink link(t);
  int applied = 0;
  link.send("a", "b", bytes_of("x"), [&](ByteView) { ++applied; });
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(link.retries(), 2u);
  EXPECT_EQ(link.sends_ok(), 1u);
  EXPECT_EQ(t.meter().stats("a", "b").retries, 2u);
  // Backoff was charged to the virtual clock: 10 + 20 ms.
  EXPECT_EQ(t.now_ms(), 30u);
}

TEST(ReliableLinkTest, ExhaustionIsTyped) {
  LoopbackTransport t;
  t.faults().fail_next("a", "b", 100);
  ReliableLink link(t);
  int applied = 0;
  try {
    link.send("a", "b", bytes_of("x"), [&](ByteView) { ++applied; });
    FAIL() << "send did not exhaust";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kExhausted);
  }
  EXPECT_EQ(applied, 0);
  EXPECT_EQ(link.sends_failed(), 1u);
}

TEST(ReliableLinkTest, AckLossRetryAppliesOnce) {
  // Every delivery succeeds receiver-side but the ack is lost, so the
  // sender retries to exhaustion — yet the apply must run exactly once.
  FaultPlan plan(7);
  FaultSpec spec;
  spec.ack_loss = 1.0;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  ReliableLink link(t);
  int applied = 0;
  EXPECT_THROW(link.send("a", "b", bytes_of("x"), [&](ByteView) { ++applied; }),
               TransportError);
  EXPECT_EQ(applied, 1);
  const ChannelStats s = t.meter().stats("a", "b");
  EXPECT_EQ(s.redeliveries, s.deliveries - 1);
}

TEST(ReliableLinkTest, DuplicateFrameDedupedByRequestId) {
  FaultPlan plan(7);
  FaultSpec spec;
  spec.duplicate = 1.0;
  plan.set_channel("a", "b", spec);
  LoopbackTransport t(std::move(plan));
  ReliableLink link(t);
  int applied = 0;
  link.send("a", "b", bytes_of("x"), [&](ByteView) { ++applied; });
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(t.meter().stats("a", "b").redeliveries, 1u);
  EXPECT_EQ(link.applied_requests(), 1u);
}

TEST(ReliableLinkTest, ReplayUnderSameRequestIdIsNoOp) {
  LoopbackTransport t;
  ReliableLink link(t);
  const uint64_t rid = link.allocate_request_id();
  int applied = 0;
  link.send_as(rid, "a", "b", bytes_of("x"), [&](ByteView) { ++applied; });
  link.send_as(rid, "a", "b", bytes_of("x"), [&](ByteView) { ++applied; });
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(t.meter().stats("a", "b").redeliveries, 1u);
}

TEST(ReliableLinkTest, DedupIsScopedByOrigin) {
  // Request-id counters are per sender process, so two origins can
  // legitimately allocate the same id; both deliveries must apply.
  LoopbackTransport t;
  ReliableLink link(t);
  const uint64_t rid = link.allocate_request_id();
  int applied = 0;
  link.send_as(rid, "node:0", "b", bytes_of("x"), [&](ByteView) { ++applied; });
  link.send_as(rid, "node:1", "b", bytes_of("x"), [&](ByteView) { ++applied; });
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(link.applied_requests(), 2u);
}

TEST(ReliableLinkTest, FailoverRetryToNewDestinationIsNoOp) {
  // A store applied at one node and retried by the same origin against a
  // different primary (failover after the ack was lost) must not apply
  // twice: dedup is keyed by (origin, request id), not by destination.
  LoopbackTransport t;
  ReliableLink link(t);
  const uint64_t rid = link.allocate_request_id();
  int applied = 0;
  link.send_as(rid, "owner:o", "node:0", bytes_of("x"), [&](ByteView) { ++applied; });
  link.send_as(rid, "owner:o", "node:1", bytes_of("x"), [&](ByteView) { ++applied; });
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(link.applied_requests(), 1u);
}

TEST(ReliableLinkTest, AckLostRequestReplayedAfterManyAckedSendsIsNoOp) {
  // The dedup state keeps a key only until its sender sees the ack, so
  // an ack-lost request must stay remembered however much acknowledged
  // traffic passes before the parked copy is replayed.
  FaultPlan plan(11);
  FaultSpec lossy;
  lossy.ack_loss = 1.0;
  plan.set_channel("owner:o", "node:0", lossy);
  LoopbackTransport t(std::move(plan));
  ReliableLink link(t);
  const uint64_t rid = link.allocate_request_id();
  int parked_applies = 0;
  EXPECT_THROW(link.send_as(rid, "owner:o", "node:0", bytes_of("x"),
                            [&](ByteView) { ++parked_applies; }),
               TransportError);
  EXPECT_EQ(parked_applies, 1);

  t.faults().set_channel("owner:o", "node:0", FaultSpec());
  int applied = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string from = i % 2 == 0 ? "owner:o" : "user:" + std::to_string(i % 3);
    link.send(from, i % 5 == 0 ? "node:0" : "node:1", bytes_of("y"),
              [&](ByteView) { ++applied; });
  }
  EXPECT_EQ(applied, 10000);
  EXPECT_EQ(link.applied_requests(), 10001u);
  // Bounded: the parked key plus one newest-acked id per origin.
  EXPECT_EQ(link.dedup_entries(), 1u + 4u);

  link.send_as(rid, "owner:o", "node:0", bytes_of("x"), [&](ByteView) { ++parked_applies; });
  EXPECT_EQ(parked_applies, 1);
  EXPECT_EQ(link.applied_requests(), 10001u);
  EXPECT_EQ(link.dedup_entries(), 4u);
}

TEST(ReliableLinkTest, NonTransportExceptionsPropagateUnretried) {
  LoopbackTransport t;
  ReliableLink link(t);
  int attempts = 0;
  EXPECT_THROW(link.send("a", "b", bytes_of("x"),
                         [&](ByteView) {
                           ++attempts;
                           throw SchemeError("application rejected it");
                         }),
               SchemeError);
  EXPECT_EQ(attempts, 1);
  // A failed apply must not mark the request as applied.
  EXPECT_EQ(link.applied_requests(), 0u);
}

TEST(ReliableLinkTest, DeadlineBoundsTheSend) {
  LoopbackTransport t;
  t.faults().fail_next("a", "b", 1000);
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.base_backoff_ms = 100;
  policy.max_backoff_ms = 1000;
  policy.deadline_ms = 350;
  ReliableLink link(t, policy);
  EXPECT_THROW(link.send("a", "b", bytes_of("x"), [](ByteView) {}), TransportError);
  // Backoffs 100+200 = 300 <= 350, next (400) overshoots: 4 attempts max.
  EXPECT_LE(t.meter().stats("a", "b").frames, 4u);
}

}  // namespace
}  // namespace maabe::cloud
