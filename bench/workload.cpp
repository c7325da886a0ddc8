// Production-shaped workload bench (DESIGN.md §14): drives the loadgen
// harness through five scenarios against a 3-node / R=2 cluster and
// emits BENCH_workload.json with per-op-class latency percentiles,
// achieved throughput and the admission-control counters.
//
//   steady    mixed Zipf traffic, no faults — the guarded curve:
//             download_p99_ms (regress guard) and achieved_qps
//             (floor_ratio guard) come from here.
//   storm     a mid-run revocation storm; shows the epoch pipeline
//             sharing the cluster with reads.
//   outage    kill node:1 mid-run, restart at 2/3 — quorum reads
//             degrade (fail-closed) but never error; writes node:1
//             misses are owed as one hint per file, drained on restart.
//   overload  whole cluster down with a tiny durable-queue cap —
//             uploads park up to the cap, then callers see the typed
//             kOverloaded rejection and queue depth stays bounded
//             (overload_rejected / overload_bounded guards).
//   recovery  kill node:1 at 1/3, traffic through the outage, rejoin at
//             2/3 via the recovery protocol (hinted hand-off + Merkle
//             anti-entropy + 2PC epoch resolution, DESIGN.md §15) —
//             emits recovery_convergence_ms and the transferred-bytes
//             counters. Guards: the rejoin must move something
//             (recovery_bytes_transferred) but strictly less than a
//             full snapshot of the node (recovery_bounded), and no
//             epoch may end staged-open (recovery_staged_open_zero).
//
// MAABE_BENCH_SMALL=1 switches to the fast insecure curve (bench-smoke).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "bench_json.h"
#include "loadgen/loadgen.h"

namespace maabe::bench {
namespace {

using loadgen::LoadGenerator;
using loadgen::OpStats;
using loadgen::ScenarioEvent;
using loadgen::WorkloadConfig;
using loadgen::WorkloadReport;

/// SLO spec applied to every scenario (DESIGN.md §16). Thresholds are
/// deliberately generous against the committed steady baseline
/// (download p99 ~2 ms on the small curve): steady must meet them
/// (slo_download_p99_met is smoke-guarded), the fault scenarios show
/// burn rates above 1 when degraded/rejected ops eat the budget.
constexpr const char* kSloSpec =
    "download_p99_ms=250,epoch_commit_ms=30000@0.95,error_rate=0.01";

WorkloadConfig base_config() {
  WorkloadConfig cfg;
  cfg.authorities = 2;
  cfg.attributes_per_authority = 2;
  cfg.users = 8;
  cfg.users_per_attribute_set = 2;
  cfg.files = 16;
  cfg.nodes = 3;
  cfg.replication = 2;
  cfg.ops = 240;
  cfg.zipf_s = 1.1;
  cfg.seed = 42;
  cfg.slo_spec = kSloSpec;
  return cfg;
}

Json slo_json(const maabe::telemetry::SloStatus& s) {
  Json j;
  j.put("objective", s.objective)
      .put("threshold_ms", s.threshold_ms)
      .put("samples", s.samples)
      .put("bad", s.bad)
      .put("burn_short", s.burn_short)
      .put("burn_long", s.burn_long)
      .put("met", s.met ? 1 : 0);
  return j;
}

int slo_met(const WorkloadReport& r, const std::string& name) {
  for (const auto& s : r.slo) {
    if (s.name == name) return s.met ? 1 : 0;
  }
  return 0;  // untracked objective reads as unmet, never silently green
}

Json op_json(const OpStats& s) {
  Json j;
  j.put("attempts", s.attempts())
      .put("ok", s.ok)
      .put("denied", s.denied)
      .put("degraded", s.degraded)
      .put("rejected", s.rejected)
      .put("errors", s.errors)
      .put("p50_ms", s.percentile(50))
      .put("p95_ms", s.percentile(95))
      .put("p99_ms", s.percentile(99));
  return j;
}

Json report_json(const WorkloadReport& r) {
  Json per_op;
  for (const auto& [cls, stats] : r.per_op) per_op.put(cls, op_json(stats));
  Json j;
  j.put("ops", r.total_ops)
      .put("wall_seconds", r.wall_seconds)
      .put("achieved_qps", r.achieved_qps())
      .put("per_op", per_op)
      .put("decrypt_cache_hits", r.decrypt_cache_hits)
      .put("decrypt_cache_misses", r.decrypt_cache_misses)
      .put("parked_rejected", r.parked_rejected)
      .put("rejoins", r.rejoins)
      .put("recovery_convergence_ms", r.recovery_convergence_ms)
      .put("recovery_bytes_transferred", r.recovery_bytes_transferred)
      .put("recovery_files_transferred", r.recovery_files_transferred)
      .put("recovery_hints_replayed", r.recovery_hints_replayed)
      .put("recovery_epochs_resolved", r.recovery_epochs_resolved);
  if (!r.slo.empty()) {
    Json slo;
    for (const auto& s : r.slo) slo.put(s.name, slo_json(s));
    j.put("slo", slo);
  }
  return j;
}

void print_report(const char* scenario, const WorkloadReport& r) {
  std::printf("%s: %llu ops in %.3f s -> %.1f op/s\n", scenario,
              static_cast<unsigned long long>(r.total_ops), r.wall_seconds,
              r.achieved_qps());
  for (const auto& [cls, s] : r.per_op) {
    std::printf("  %-9s ok %-5llu denied %-3llu degraded %-4llu rejected %-4llu "
                "errors %-3llu p50 %.2f p95 %.2f p99 %.2f ms\n",
                cls.c_str(), static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.denied),
                static_cast<unsigned long long>(s.degraded),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.errors), s.percentile(50),
                s.percentile(95), s.percentile(99));
  }
  for (const auto& s : r.slo) {
    std::printf("  slo %-18s burn short %.3f long %.3f (%llu/%llu bad) -> %s\n",
                s.name.c_str(), s.burn_short, s.burn_long,
                static_cast<unsigned long long>(s.bad),
                static_cast<unsigned long long>(s.samples),
                s.met ? "met" : "MISSED");
  }
}

}  // namespace
}  // namespace maabe::bench

int main() {
  using namespace maabe::bench;
  std::printf("Workload harness: Zipf traffic vs 3-node cluster (%s)\n\n",
              bench_group_label().c_str());
  auto grp = bench_group();

  // ---- steady: the guarded curve ------------------------------------
  WorkloadConfig steady_cfg = base_config();
  LoadGenerator steady_gen(grp, steady_cfg);
  steady_gen.setup();
  const WorkloadReport steady = steady_gen.run();
  print_report("steady", steady);

  // ---- storm: revocation burst mid-run ------------------------------
  WorkloadConfig storm_cfg = base_config();
  storm_cfg.events.push_back(
      {storm_cfg.ops / 3, ScenarioEvent::Kind::kRevocationStorm, "", 6});
  LoadGenerator storm_gen(grp, storm_cfg);
  storm_gen.setup();
  const WorkloadReport storm = storm_gen.run();
  print_report("storm", storm);

  // ---- outage: kill + restart node:1 --------------------------------
  WorkloadConfig outage_cfg = base_config();
  outage_cfg.events.push_back(
      {outage_cfg.ops / 3, ScenarioEvent::Kind::kKillNode, "node:1", 0});
  outage_cfg.events.push_back(
      {2 * outage_cfg.ops / 3, ScenarioEvent::Kind::kRestartNode, "node:1", 0});
  LoadGenerator outage_gen(grp, outage_cfg);
  outage_gen.setup();
  const WorkloadReport outage = outage_gen.run();
  print_report("outage", outage);

  // ---- recovery: kill -> traffic -> rejoin --------------------------
  WorkloadConfig rec_cfg = base_config();
  rec_cfg.events.push_back(
      {rec_cfg.ops / 3, ScenarioEvent::Kind::kKillNode, "node:1", 0});
  rec_cfg.events.push_back(
      {2 * rec_cfg.ops / 3, ScenarioEvent::Kind::kRejoinNode, "node:1", 0});
  LoadGenerator rec_gen(grp, rec_cfg);
  rec_gen.setup();
  const WorkloadReport rec = rec_gen.run();
  print_report("recovery", rec);
  // The rejoin must have moved strictly less than the node's full store
  // (that is the point of hint-scoped drains + Merkle diffs over a
  // snapshot fetch), and no epoch may be left staged-open.
  const uint64_t rec_snapshot_bytes =
      rec_gen.system().cluster().snapshot("node:1").size();
  const double rec_ratio =
      rec_snapshot_bytes > 0
          ? static_cast<double>(rec.recovery_bytes_transferred) /
                static_cast<double>(rec_snapshot_bytes)
          : 0.0;
  const bool rec_bounded = rec.recovery_bytes_transferred > 0 && rec_ratio < 0.9;
  uint64_t rec_staged_open = 0;
  for (const auto& nh : rec_gen.system().cluster_health())
    rec_staged_open += nh.store.epochs_staged_open;
  std::printf("  rejoin converged in %.2f ms, moved %llu bytes "
              "(%.1f%% of a %llu-byte snapshot) -> %s, staged-open %llu\n",
              rec.recovery_convergence_ms,
              static_cast<unsigned long long>(rec.recovery_bytes_transferred),
              rec_ratio * 100.0,
              static_cast<unsigned long long>(rec_snapshot_bytes),
              rec_bounded ? "bounded" : "UNBOUNDED",
              static_cast<unsigned long long>(rec_staged_open));

  // ---- overload: bounded queues under a dead cluster ----------------
  // Every node dead, durable cap 4, store-only traffic: the first ~cap
  // uploads park, the rest must come back as typed kOverloaded
  // rejections while the queue depth stays at the cap.
  WorkloadConfig over_cfg = base_config();
  over_cfg.ops = 16;
  over_cfg.pending_cap = 4;
  over_cfg.store_weight = 1.0;
  over_cfg.download_weight = 0.0;
  over_cfg.revoke_weight = 0.0;
  over_cfg.churn_weight = 0.0;
  over_cfg.flush_every = 0;  // no replay: the destination stays dead
  LoadGenerator over_gen(grp, over_cfg);
  over_gen.setup();
  for (size_t i = 0; i < over_cfg.nodes; ++i)
    over_gen.system().cluster().kill_node("node:" + std::to_string(i));
  const WorkloadReport over = over_gen.run();
  print_report("overload", over);
  size_t max_queue = 0;
  for (const auto& [dest, depth] :
       over_gen.system().health().pending_by_destination)
    max_queue = std::max(max_queue, depth);
  const bool bounded = max_queue <= over_gen.system().pending_cap();
  std::printf("  max queue depth %zu (cap %zu) -> %s\n", max_queue,
              over_gen.system().pending_cap(), bounded ? "bounded" : "UNBOUNDED");

  const OpStats& steady_dl = steady.per_op.at("download");
  Json root;
  root.put("bench", "workload")
      .put("group", bench_group_label())
      .put("nodes", static_cast<uint64_t>(steady_cfg.nodes))
      .put("replication", static_cast<uint64_t>(steady_cfg.replication))
      .put("zipf_s", steady_cfg.zipf_s)
      // Guarded headline numbers (bench_smoke.sh): the steady curve's
      // download tail and throughput, and the overload invariants.
      .put("download_p99_ms", steady_dl.percentile(99))
      .put("achieved_qps", steady.achieved_qps())
      .put("overload_rejected",
           over.per_op.count("store") ? over.per_op.at("store").rejected : 0)
      .put("overload_bounded", bounded ? 1 : 0)
      .put("recovery_convergence_ms", rec.recovery_convergence_ms)
      .put("recovery_bytes_transferred", rec.recovery_bytes_transferred)
      .put("recovery_files_transferred", rec.recovery_files_transferred)
      .put("recovery_hints_replayed", rec.recovery_hints_replayed)
      .put("recovery_snapshot_bytes", rec_snapshot_bytes)
      .put("recovery_transfer_ratio", rec_ratio)
      .put("recovery_bounded", rec_bounded ? 1 : 0)
      .put("recovery_staged_open_zero", rec_staged_open == 0 ? 1 : 0)
      // SLO plane (DESIGN.md §16): the steady scenario must stay inside
      // every objective's budget (slo_download_p99_met is smoke-guarded).
      .put("slo_spec", kSloSpec)
      .put("slo_download_p99_met", slo_met(steady, "download_p99_ms"))
      .put("slo_epoch_commit_met", slo_met(steady, "epoch_commit_ms"))
      .put("slo_error_rate_met", slo_met(steady, "error_rate"))
      .put("steady", report_json(steady))
      .put("storm", report_json(storm))
      .put("outage", report_json(outage))
      .put("recovery", report_json(rec))
      .put("overload", report_json(over))
      .put("telemetry",
           snapshot_json(maabe::telemetry::MetricsRegistry::global().collect()));
  write_bench_json("workload", root);
  return 0;
}
