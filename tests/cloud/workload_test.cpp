// Node restart/rejoin chaos under synthesized load (DESIGN.md §14):
// drives the tools/loadgen harness phase by phase — steady, node killed
// mid-workload, restarted — and asserts
//   1. a degraded-mode SLO during the outage: every download completes
//      as ok, denied or fail-closed degraded; no untyped errors, no
//      corruption;
//   2. read-repair + durable-queue replay restore byte-identical
//      replicas at identical versions after the restart;
//   3. the post-recovery phase serves downloads without degradation.
// Registered under the `chaos` ctest label.
#include <gtest/gtest.h>

#include <algorithm>

#include "loadgen/loadgen.h"

namespace maabe::loadgen {
namespace {

using cloud::CloudSystem;

/// Every replica of every file holds the same bytes at the same version.
void expect_replicas_converged(CloudSystem& sys, size_t files) {
  cloud::Cluster& c = sys.cluster();
  for (size_t f = 0; f < files; ++f) {
    const std::string fid = "file" + std::to_string(f);
    const std::vector<std::string> replicas = c.replicas_for(fid);
    ASSERT_FALSE(replicas.empty());
    ASSERT_TRUE(c.node_store(replicas.front()).has_file(fid))
        << "primary of '" << fid << "' lost it";
    const Bytes want =
        cloud::serialize(sys.group(), *c.node_store(replicas.front()).fetch(fid));
    const uint64_t version = c.version_of(replicas.front(), fid);
    for (const std::string& name : replicas) {
      ASSERT_TRUE(c.node_store(name).has_file(fid))
          << "replica " << name << " missing '" << fid << "'";
      EXPECT_EQ(cloud::serialize(sys.group(), *c.node_store(name).fetch(fid)), want)
          << "replica " << name << " diverged on '" << fid << "'";
      EXPECT_EQ(c.version_of(name, fid), version)
          << "replica " << name << " at wrong version of '" << fid << "'";
    }
  }
}

void expect_no_errors(const WorkloadReport& r, const char* phase) {
  for (const auto& [cls, s] : r.per_op) {
    EXPECT_EQ(s.errors, 0u) << phase << ": op class '" << cls << "'";
  }
}

TEST(WorkloadChaosTest, KillAndRestartMidWorkloadMeetsDegradedSlo) {
  WorkloadConfig cfg;
  cfg.users = 8;
  cfg.users_per_attribute_set = 2;
  cfg.files = 12;
  cfg.nodes = 3;
  cfg.replication = 2;
  cfg.ops = 240;  // driven in three phases of 80 below
  cfg.seed = 7;
  LoadGenerator gen(pairing::Group::test_small(), cfg);
  gen.setup();
  CloudSystem& sys = gen.system();

  // Phase 1 — steady state: nothing degrades, nothing fails.
  const WorkloadReport steady = gen.run_ops(80);
  expect_no_errors(steady, "steady");
  for (const auto& [cls, s] : steady.per_op) {
    EXPECT_EQ(s.degraded, 0u) << "steady: op class '" << cls << "'";
    EXPECT_EQ(s.rejected, 0u) << "steady: op class '" << cls << "'";
  }
  EXPECT_GT(steady.per_op.at("download").ok, 0u);

  // Phase 2 — node:1 dies mid-workload. Degraded-mode SLO: every
  // download completes ok, denied, or fail-closed degraded (quorum not
  // met / parked server deliveries). No untyped errors anywhere, and
  // writes keep landing on the surviving replicas.
  sys.cluster().kill_node("node:1");
  const WorkloadReport outage = gen.run_ops(80);
  expect_no_errors(outage, "outage");
  const OpStats& dl = outage.per_op.at("download");
  EXPECT_EQ(dl.ok + dl.denied + dl.degraded, dl.attempts())
      << "a download completed outside the degraded-mode contract";
  EXPECT_GT(dl.ok + dl.degraded, 0u);
  if (outage.per_op.count("store")) {
    EXPECT_EQ(outage.per_op.at("store").errors, 0u);
  }

  // Restart + replay: the rejoin resolves staged epochs and drains the
  // hints, the durable queues drain, anti-entropy fixes what replay missed.
  sys.cluster().restart_node("node:1");
  EXPECT_EQ(sys.flush_pending(), 0u);
  sys.cluster().recovery().sync_all();
  sys.flush_pending();
  EXPECT_EQ(sys.cluster().recovery().pending_hints(), 0u);

  // Phase 3 — recovered: the cluster serves like phase 1 again.
  const WorkloadReport recovered = gen.run_ops(80);
  expect_no_errors(recovered, "recovered");
  for (const auto& [cls, s] : recovered.per_op) {
    EXPECT_EQ(s.degraded, 0u) << "recovered: op class '" << cls << "'";
  }
  EXPECT_GT(recovered.per_op.at("download").ok, 0u);

  // Byte-identical replicas everywhere, at identical versions.
  sys.flush_pending();
  expect_replicas_converged(sys, cfg.files);
}

}  // namespace
}  // namespace maabe::loadgen
