// Chaos soak: the full enroll -> upload -> revoke -> download protocol
// survives a faulty transport for a sweep of fault seeds. Invariants:
//   1. No download ever yields wrong plaintext (degraded, never wrong).
//   2. The revoked user never decrypts once the epoch reaches the server.
//   3. Every operation eventually succeeds, or fails with a typed error.
//   4. Every injected fault is accounted for in the channel meter.
//   5. The same (system seed, fault seed) reproduces byte-identically.
// Registered under the `chaos` ctest label so it can run as its own
// parallel-safe stage (see CMakePresets.json).
#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "cloud/system.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "telemetry/trace.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

const char* kRecordA = "patient record alpha";
const char* kRecordB = "patient record bravo";

FaultSpec moderate_chaos() {
  FaultSpec spec;
  spec.drop = 0.15;
  spec.duplicate = 0.10;
  spec.corrupt = 0.10;
  spec.ack_loss = 0.10;
  spec.delay = 0.10;
  spec.delay_ms = 7;
  return spec;
}

RetryPolicy patient_policy() {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 80;
  policy.deadline_ms = 1u << 20;  // the virtual clock makes this free
  return policy;
}

/// Drives `op` until `done` holds, tolerating typed failures and
/// replaying parked deliveries between tries. Returns false if the
/// operation never converged (which fails invariant 3).
template <typename Op, typename Done>
bool ensure(CloudSystem& sys, Op&& op, Done&& done, int limit = 120) {
  for (int i = 0; i < limit; ++i) {
    if (done()) return true;
    try {
      op();
    } catch (const Error&) {
      // Typed (TransportError, SchemeError, ...) — invariant 3 allows
      // these; anything untyped escapes and fails the test hard.
    }
    sys.flush_pending();
  }
  return done();
}

/// Invariant 1: whatever a report managed to open must be the truth.
void check_no_wrong_plaintext(const CloudSystem::DownloadReport& report) {
  for (const auto& [name, data] : report.opened()) {
    if (name == "a") {
      ASSERT_EQ(string_of(data), kRecordA);
    } else if (name == "b") {
      ASSERT_EQ(string_of(data), kRecordB);
    } else {
      FAIL() << "unexpected component '" << name << "'";
    }
  }
}

bool has_attr(const telemetry::SpanRecord& rec, const std::string& key,
              const std::string& value) {
  for (const auto& [k, v] : rec.attrs) {
    if (k == key && v == value) return true;
  }
  return false;
}

struct SoakOutcome {
  Bytes digest;           ///< everything observable, for invariant 5
  uint64_t faults = 0;    ///< total injected
  uint64_t retries = 0;
};

SoakOutcome run_scenario(std::shared_ptr<const Group> grp, uint64_t fault_seed) {
  FaultPlan plan(fault_seed);
  plan.set_default(moderate_chaos());
  CloudSystem sys(grp, "chaos-soak",
                  std::make_unique<LoopbackTransport>(std::move(plan)),
                  patient_policy());
  SoakOutcome out;

  // ---- Enroll ---------------------------------------------------------
  const auto has_authority = [&] {
    try {
      (void)sys.authority("Med");
      return true;
    } catch (const SchemeError&) {
      return false;
    }
  };
  EXPECT_TRUE(ensure(sys, [&] { sys.add_authority("Med", {"Doctor"}); }, has_authority))
      << "seed " << fault_seed << ": add_authority never converged";
  const auto has_owner = [&] {
    try {
      (void)sys.owner("hosp");
      return true;
    } catch (const SchemeError&) {
      return false;
    }
  };
  EXPECT_TRUE(ensure(sys, [&] { sys.add_owner("hosp"); }, has_owner))
      << "seed " << fault_seed << ": add_owner never converged";
  for (const char* uid : {"alice", "bob"}) {
    const auto has_user = [&] {
      try {
        (void)sys.user(uid);
        return true;
      } catch (const SchemeError&) {
        return false;
      }
    };
    EXPECT_TRUE(ensure(sys, [&] { sys.add_user(uid); }, has_user))
        << "seed " << fault_seed << ": add_user(" << uid << ") never converged";
  }

  // Idempotent operations: done == "completed without throwing once".
  const auto idempotent = [&](auto op, const char* what) {
    bool done = false;
    EXPECT_TRUE(ensure(sys, [&] { op(); done = true; }, [&] { return done; }))
        << "seed " << fault_seed << ": " << what << " never converged";
  };
  idempotent([&] { sys.publish_authority_keys("Med", "hosp"); }, "publish");
  idempotent([&] { sys.assign_attributes("Med", "alice", {"Doctor"}); }, "assign a");
  idempotent([&] { sys.assign_attributes("Med", "bob", {"Doctor"}); }, "assign b");
  idempotent([&] { sys.issue_user_key("Med", "alice", "hosp"); }, "issue a");
  idempotent([&] { sys.issue_user_key("Med", "bob", "hosp"); }, "issue b");

  // ---- Upload ---------------------------------------------------------
  // protect() runs once; delivery parks on failure and drains below.
  sys.upload("hosp", "f1",
             {{"a", bytes_of(kRecordA), "Doctor@Med"},
              {"b", bytes_of(kRecordB), "Doctor@Med"}});

  // ---- Download (pre-revocation): both users read everything ----------
  for (const char* uid : {"alice", "bob"}) {
    bool all_ok = false;
    EXPECT_TRUE(ensure(sys,
                       [&] {
                         const auto report = sys.download_report(uid, "f1");
                         check_no_wrong_plaintext(report);
                         all_ok = report.all_ok() && report.slots.size() == 2;
                       },
                       [&] { return all_ok; }))
        << "seed " << fault_seed << ": " << uid << " never read f1";
  }

  // ---- Revoke bob -----------------------------------------------------
  sys.revoke_attribute("Med", "bob", "Doctor");
  EXPECT_TRUE(ensure(sys, [] {}, [&] { return sys.flush_pending() == 0; }))
      << "seed " << fault_seed << ": revocation deliveries never drained";

  // ---- Post-revocation invariants ------------------------------------
  // Invariant 2: with the epoch committed, bob opens nothing — ever.
  bool bob_report_done = false;
  EXPECT_TRUE(ensure(sys,
                     [&] {
                       const auto report = sys.download_report("bob", "f1");
                       check_no_wrong_plaintext(report);
                       EXPECT_TRUE(report.opened().empty())
                           << "seed " << fault_seed << ": revoked user decrypted";
                       bob_report_done = true;
                     },
                     [&] { return bob_report_done; }));
  // Alice keeps full access through the update.
  Bytes alice_view;
  bool alice_ok = false;
  EXPECT_TRUE(ensure(sys,
                     [&] {
                       const auto report = sys.download_report("alice", "f1");
                       check_no_wrong_plaintext(report);
                       if (report.all_ok()) {
                         alice_ok = true;
                         alice_view.clear();
                         for (const auto& [name, data] : report.opened()) {
                           alice_view.insert(alice_view.end(), name.begin(), name.end());
                           alice_view.insert(alice_view.end(), data.begin(), data.end());
                         }
                       }
                     },
                     [&] { return alice_ok; }))
      << "seed " << fault_seed << ": alice lost access after bob's revocation";

  // ---- Invariant 4: every injected fault is accounted for -------------
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys.transport());
  const FaultPlan::Injected& injected = loopback.faults().injected();
  const ChannelStats totals = sys.meter().totals();
  EXPECT_EQ(totals.drops, injected.drops);
  EXPECT_EQ(totals.duplicates, injected.duplicates);
  EXPECT_EQ(totals.corruptions, injected.corruptions);
  EXPECT_EQ(totals.ack_losses, injected.ack_losses);
  EXPECT_EQ(totals.delays, injected.delays);
  EXPECT_EQ(totals.script_failures, injected.script_failures);
  EXPECT_EQ(totals.faults(), injected.total());

  // Goodput accounting: bytes_delivered counts every intact frame copy
  // handed to a receiver (including redelivered copies the dedup layer
  // then suppresses); bytes_accepted only counts applied payloads.
  // Dedup'd redeliveries must never inflate goodput.
  EXPECT_LE(totals.bytes_accepted, totals.bytes_delivered);
  if (totals.redeliveries == 0) {
    EXPECT_EQ(totals.bytes_accepted, totals.bytes_delivered);
  } else {
    EXPECT_LT(totals.bytes_accepted, totals.bytes_delivered);
  }

  const CloudSystem::Health health = sys.health();
  EXPECT_EQ(health.pending_deliveries, 0u);
  EXPECT_GT(health.applied_requests, 0u);

  // ---- Invariant 5 input: digest of everything observable -------------
  Writer w;
  w.var_bytes(serialize(*grp, *sys.server().fetch("f1")));
  w.var_bytes(alice_view);
  w.u64(totals.payload_bytes);
  w.u64(totals.frame_bytes);
  w.u64(totals.frames);
  w.u64(totals.deliveries);
  w.u64(totals.faults());
  w.u64(totals.retries);
  w.u64(totals.redeliveries);
  w.u64(totals.bytes_delivered);
  w.u64(totals.bytes_accepted);
  w.u64(health.sends_ok);
  w.u64(health.sends_failed);
  w.u64(health.applied_requests);
  w.u64(health.virtual_ms);
  out.digest = crypto::Sha256::digest(w.bytes());
  out.faults = injected.total();
  out.retries = totals.retries;
  return out;
}

TEST(ChaosSoak, ThirtyTwoSeedSweep) {
  auto grp = Group::test_small();
  uint64_t total_faults = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const SoakOutcome out = run_scenario(grp, seed);
    total_faults += out.faults;
  }
  // The sweep is pointless if the plan never actually injected faults.
  EXPECT_GT(total_faults, 100u);
}

TEST(ChaosSoak, SameSeedIsByteIdentical) {
  auto grp = Group::test_small();
  for (uint64_t seed : {3u, 17u}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const SoakOutcome a = run_scenario(grp, seed);
    const SoakOutcome b = run_scenario(grp, seed);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.retries, b.retries);
  }
}

// A chaotic scenario with the telemetry exporters on produces the two
// operator artifacts: a JSON-lines span stream and a Prometheus-style
// metrics snapshot, both parseable and mutually consistent.
TEST(ChaosSoak, EmitsTelemetryArtifacts) {
  const std::string trace_path =
      testing::TempDir() + "/chaos_soak_trace.jsonl";
  std::vector<telemetry::SpanRecord> records;
  telemetry::Tracer::global().enable(
      [&, file_sink = telemetry::JsonLinesSink(trace_path)](
          const telemetry::SpanRecord& rec) mutable {
        records.push_back(rec);
        file_sink(rec);
      });
  const SoakOutcome out = run_scenario(Group::test_small(), 7);
  telemetry::Tracer::global().disable();
  EXPECT_GT(out.faults, 0u);

  // Span stream: non-empty, and the revocation root is present with a
  // committed 2PC epoch tree (epoch -> stage -> engine.parallel_for ->
  // slots) and transport activity underneath it somewhere in the run.
  ASSERT_FALSE(records.empty());
  size_t revoke_roots = 0, frames = 0, slots = 0;
  std::set<uint64_t> epochs, stages, fan_outs;
  for (const telemetry::SpanRecord& rec : records) {
    EXPECT_NE(rec.trace_id, 0u);
    EXPECT_NE(rec.span_id, 0u);
    EXPECT_GE(rec.end_ns, rec.start_ns);
    if (rec.name == "system.revoke_attribute") ++revoke_roots;
    if (rec.name == "cluster.epoch_2pc" && has_attr(rec, "outcome", "committed"))
      epochs.insert(rec.span_id);
    if (rec.name == "transport.frame") ++frames;
  }
  for (const telemetry::SpanRecord& rec : records) {
    if (rec.name == "server.reencrypt_stage" && epochs.contains(rec.parent_id))
      stages.insert(rec.span_id);
  }
  for (const telemetry::SpanRecord& rec : records) {
    if (rec.name == "engine.parallel_for" && stages.contains(rec.parent_id))
      fan_outs.insert(rec.span_id);
  }
  for (const telemetry::SpanRecord& rec : records) {
    if (rec.name == "server.reencrypt_slot" && fan_outs.contains(rec.parent_id)) ++slots;
  }
  EXPECT_EQ(revoke_roots, 1u);
  EXPECT_GE(epochs.size(), 1u);
  EXPECT_GE(stages.size(), 1u);
  EXPECT_GE(slots, 1u);
  EXPECT_GT(frames, 0u);

  // The file sink saw the same stream, one JSON object per line.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.is_open());
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, records.size());

  // Metrics snapshot: renders, and the registry's transport counters
  // are at least as large as this scenario's channel totals (the
  // registry is process-wide and other tests may have added to it).
  const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().collect();
  const std::string text = snap.prometheus_text();
  EXPECT_NE(text.find("# TYPE maabe_transport_frames_total counter"),
            std::string::npos);
  EXPECT_GT(snap.counter("maabe_transport_frames_total"), 0u);
  EXPECT_GT(snap.counter("maabe_server_epochs_committed_total"), 0u);
}

TEST(ChaosSoak, FaultFreeControlInjectsNothing) {
  CloudSystem sys(Group::test_small(), "chaos-soak");
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  sys.add_user("alice");
  sys.assign_attributes("Med", "alice", {"Doctor"});
  sys.issue_user_key("Med", "alice", "hosp");
  sys.upload("hosp", "f1", {{"a", bytes_of(kRecordA), "Doctor@Med"}});
  const auto report = sys.download_report("alice", "f1");
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(sys.meter().totals().faults(), 0u);
  EXPECT_EQ(sys.health().transport.retries, 0u);
}

}  // namespace
}  // namespace maabe::cloud
