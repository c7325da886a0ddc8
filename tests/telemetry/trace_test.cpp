// Span/Tracer semantics plus the end-to-end acceptance scenario: one
// fault-injected revocation epoch produces a causally-linked span tree
// — revocation root -> transport send/frames (including every scripted
// retry) -> server epoch -> per-slot re-encrypts — under a single
// trace id (DESIGN.md §11).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cloud/system.h"
#include "common/errors.h"
#include "telemetry/trace.h"

namespace maabe::telemetry {
namespace {

using cloud::CloudSystem;
using cloud::FaultPlan;
using cloud::LoopbackTransport;
using pairing::Group;

/// Installs a vector-collecting sink for the test's lifetime.
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

TEST(Trace, DisabledTracerHandsOutInertSpans) {
  ASSERT_FALSE(Tracer::global().enabled());
  Span span = Tracer::global().start_span("untraced");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  span.attr("k", "v");  // all no-ops
  span.end();
}

TEST(Trace, SameThreadNestingLinksParentAndChild) {
  SpanCollector sink;
  {
    Span root = Tracer::global().start_span("root");
    ASSERT_TRUE(root.active());
    {
      Span child = Tracer::global().start_span("child");
      ASSERT_TRUE(child.active());
      EXPECT_EQ(child.context().trace_id, root.context().trace_id);
    }
  }
  ASSERT_EQ(sink.records().size(), 2u);  // child emitted first (ends first)
  const SpanRecord& child = sink.records()[0];
  const SpanRecord& root = sink.records()[1];
  EXPECT_EQ(child.name, "child");
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_LE(root.start_ns, child.start_ns);
}

TEST(Trace, EndRestoresPreviousCurrentSpan) {
  SpanCollector sink;
  Span root = Tracer::global().start_span("root");
  const SpanContext root_ctx = root.context();
  {
    Span child = Tracer::global().start_span("child");
    EXPECT_EQ(Tracer::current().span_id, child.context().span_id);
  }
  EXPECT_EQ(Tracer::current().span_id, root_ctx.span_id);
}

TEST(Trace, ExplicitParentCrossesThreads) {
  SpanCollector sink;
  SpanContext parent_ctx;
  {
    Span parent = Tracer::global().start_span("parent");
    parent_ctx = parent.context();
    std::thread worker([&] {
      Span child = Tracer::global().start_child("worker", parent_ctx);
      ASSERT_TRUE(child.active());
      // Non-scoped: the worker thread's current span stays empty.
      EXPECT_FALSE(Tracer::current().valid());
    });
    worker.join();
  }
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[0].name, "worker");
  EXPECT_EQ(sink.records()[0].parent_id, parent_ctx.span_id);
  EXPECT_EQ(sink.records()[0].trace_id, parent_ctx.trace_id);
}

TEST(Trace, InvalidExplicitParentYieldsInertSpan) {
  SpanCollector sink;
  Span span = Tracer::global().start_child("orphan", SpanContext{});
  EXPECT_FALSE(span.active());
  span.end();
  EXPECT_TRUE(sink.records().empty());
}

TEST(Trace, JsonLineFormat) {
  SpanRecord rec;
  rec.trace_id = 7;
  rec.span_id = 8;
  rec.parent_id = 7;
  rec.name = "op \"quoted\"";
  rec.start_ns = 100;
  rec.end_ns = 250;
  rec.attrs.emplace_back("outcome", "delivered");
  const std::string line = rec.to_json_line();
  EXPECT_NE(line.find("\"trace_id\":\"7\""), std::string::npos);
  EXPECT_NE(line.find("\"span_id\":\"8\""), std::string::npos);
  EXPECT_NE(line.find("\"parent_id\":\"7\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"op \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"start_ns\":100"), std::string::npos);
  EXPECT_NE(line.find("\"end_ns\":250"), std::string::npos);
  EXPECT_NE(line.find("\"outcome\":\"delivered\""), std::string::npos);
}

TEST(Trace, WallStartDerivesFromProcessAnchor) {
  const auto wall_before = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::system_clock::now().time_since_epoch())
                               .count();
  SpanCollector sink;
  { Span s = Tracer::global().start_span("anchored"); }
  const auto wall_after = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count();
  ASSERT_EQ(sink.records().size(), 1u);
  const SpanRecord& rec = sink.records()[0];
  // The anchor maps the steady start into wall time: the span's wall
  // start must land inside the wall interval bracketing the test
  // (generous ±1s slack for clock reads on a loaded host).
  EXPECT_GE(rec.wall_start_us + 1'000'000u, static_cast<uint64_t>(wall_before));
  EXPECT_LE(rec.wall_start_us, static_cast<uint64_t>(wall_after) + 1'000'000u);
  EXPECT_NE(rec.to_json_line().find("\"wall_start_us\":"), std::string::npos);
}

// ---- Satellite (c): emit must not hold the sink lock across the sink
// callback. A slow sink with many concurrent emitters would serialize
// (or deadlock, for a re-entrant sink) if it did.
TEST(Trace, ConcurrentEmittersDoNotSerializeOnTheSink) {
  std::atomic<int> in_sink{0};
  std::atomic<int> max_concurrent_spans{0};
  std::atomic<int> live_spans{0};
  std::atomic<size_t> emitted{0};
  Tracer::global().enable([&](const SpanRecord&) {
    in_sink.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_sink.fetch_sub(1);
    emitted.fetch_add(1);
  });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Span s = Tracer::global().start_span("burst");
        const int live = live_spans.fetch_add(1) + 1;
        int seen = max_concurrent_spans.load();
        while (live > seen &&
               !max_concurrent_spans.compare_exchange_weak(seen, live)) {
        }
        s.end();  // enqueue + maybe flush; must not block siblings
        live_spans.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::global().disable();  // drains the queue before dropping the sink
  EXPECT_EQ(emitted.load(), static_cast<size_t>(kThreads) * kPerThread);
  // With a 1ms sink delay per record, emitters that waited for the sink
  // would run lockstep; flush combining keeps them concurrent.
  EXPECT_GT(max_concurrent_spans.load(), 1);
}

TEST(Trace, ReentrantEmitFromInsideSinkDoesNotDeadlock) {
  std::vector<std::string> names;
  std::atomic<bool> emitted_inner{false};
  Tracer::global().enable([&](const SpanRecord& rec) {
    names.push_back(rec.name);  // sink calls are serialized by the tracer
    if (!emitted_inner.exchange(true)) {
      // A sink that itself traces (e.g. logging through an instrumented
      // writer) re-enters emit() on the flushing thread.
      Span inner = Tracer::global().start_span("inner.from_sink");
      inner.end();
    }
  });
  { Span outer = Tracer::global().start_span("outer"); }
  Tracer::global().disable();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "outer");
  EXPECT_EQ(names[1], "inner.from_sink");
}

TEST(Trace, DisableDrainsPendingRecordsBeforeDroppingSink) {
  std::atomic<size_t> seen{0};
  Tracer::global().enable([&](const SpanRecord&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    seen.fetch_add(1);
  });
  constexpr int kSpans = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kSpans; ++i) {
    threads.emplace_back([&] { Span s = Tracer::global().start_span("drain"); });
  }
  for (std::thread& t : threads) t.join();
  // All spans ended; some may still sit in the flush queue. disable()
  // must wait for the active flusher instead of racing the teardown.
  Tracer::global().disable();
  EXPECT_EQ(seen.load(), static_cast<size_t>(kSpans));
}

// ---- The acceptance scenario -----------------------------------------
// A revocation epoch whose server hop fails twice (scripted) before
// succeeding must yield ONE trace containing: the revoke root span, a
// transport.send with three attempts, three transport.frame spans (two
// scripted failures + one delivery), the server epoch span, and one
// slot span per re-encrypted ciphertext slot — every parent chain
// terminating at the root.
TEST(Trace, FaultInjectedRevocationEpochYieldsLinkedSpanTree) {
  auto grp = Group::test_small();
  CloudSystem sys(grp, "trace-acceptance");
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const char* uid : {"alice", "bob"}) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor"});
    sys.issue_user_key("Med", uid, "hosp");
  }
  sys.upload("hosp", "f1",
             {{"a", bytes_of("alpha"), "Doctor@Med"},
              {"b", bytes_of("bravo"), "Doctor@Med"}});

  auto& loopback = dynamic_cast<LoopbackTransport&>(sys.transport());
  loopback.faults().fail_next("owner:hosp", "server", 2);

  size_t slots = 0;
  std::vector<SpanRecord> records;
  {
    SpanCollector sink;
    slots = sys.revoke_attribute("Med", "bob", "Doctor");
    records = sink.records();
  }
  ASSERT_EQ(slots, 2u);  // both slots of f1 re-encrypted in this call

  // Index the tree and find the root.
  std::map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* root = nullptr;
  for (const SpanRecord& rec : records) {
    by_id[rec.span_id] = &rec;
    if (rec.name == "system.revoke_attribute") {
      ASSERT_EQ(root, nullptr) << "two revocation roots";
      root = &rec;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(attr_of(*root, "attribute"), "Doctor");

  // One trace id everywhere; every parent chain reaches the root.
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

  // The epoch hop: a send with 3 attempts, whose channel saw two
  // scripted failures and then one delivery.
  const SpanRecord* epoch_send = nullptr;
  size_t scripted = 0, delivered = 0;
  for (const SpanRecord& rec : records) {
    if (rec.name == "transport.send" && attr_of(rec, "from") == "owner:hosp" &&
        attr_of(rec, "to") == "server") {
      epoch_send = &rec;
    }
    if (rec.name == "transport.frame" && attr_of(rec, "from") == "owner:hosp" &&
        attr_of(rec, "to") == "server") {
      if (attr_of(rec, "outcome") == "scripted_failure") ++scripted;
      if (attr_of(rec, "outcome") == "delivered") ++delivered;
    }
  }
  ASSERT_NE(epoch_send, nullptr);
  EXPECT_EQ(attr_of(*epoch_send, "attempts"), "3");
  EXPECT_EQ(attr_of(*epoch_send, "outcome"), "ok");
  EXPECT_EQ(scripted, 2u);
  EXPECT_EQ(delivered, 1u);

  // The 2PC epoch, the node's stage under it and the stage's per-slot
  // spans are in the same tree; each slot nests under the stage's
  // engine.parallel_for, on whichever thread ran it.
  const SpanRecord* epoch = nullptr;
  const SpanRecord* stage = nullptr;
  std::vector<const SpanRecord*> slot_spans;
  for (const SpanRecord& rec : records) {
    if (rec.name == "cluster.epoch_2pc") {
      ASSERT_EQ(epoch, nullptr) << "two epochs";
      epoch = &rec;
    }
    if (rec.name == "server.reencrypt_stage") {
      ASSERT_EQ(stage, nullptr) << "two stages";
      stage = &rec;
    }
    if (rec.name == "server.reencrypt_slot") slot_spans.push_back(&rec);
  }
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(attr_of(*epoch, "outcome"), "committed");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->parent_id, epoch->span_id);
  EXPECT_EQ(attr_of(*stage, "slots"), "2");
  ASSERT_EQ(slot_spans.size(), 2u);
  for (const SpanRecord* slot : slot_spans) {
    const auto fan_out = by_id.find(slot->parent_id);
    ASSERT_NE(fan_out, by_id.end());
    EXPECT_EQ(fan_out->second->name, "engine.parallel_for");
    EXPECT_EQ(fan_out->second->parent_id, stage->span_id);
  }
}

}  // namespace
}  // namespace maabe::telemetry
