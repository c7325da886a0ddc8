// maabe-loadgen: command-line front end for the workload harness.
//
// Synthesizes a mixed store/download/revoke/churn stream against a
// multi-node CloudSystem (Zipf file popularity, user churn, scripted
// revocation storms and node kill/restart), prints a per-op-class
// latency/outcome table and writes BENCH_workload.json.
//
// Quick start (fast insecure curve):
//   MAABE_BENCH_SMALL=1 maabe-loadgen --ops 400 --storm-at 150 \
//       --storm-size 4 --kill-at 200 --kill-node 1 --restart-at 300
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_json.h"
#include "loadgen/loadgen.h"

namespace {

using maabe::loadgen::LoadGenerator;
using maabe::loadgen::OpStats;
using maabe::loadgen::ScenarioEvent;
using maabe::loadgen::WorkloadConfig;
using maabe::loadgen::WorkloadReport;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --authorities N       attribute authorities (default 2)\n"
      "  --attributes N        attributes per authority (default 2)\n"
      "  --users N             initial user pool (default 8)\n"
      "  --set-size N          users per attribute set (default 2)\n"
      "  --files N             file universe (default 16)\n"
      "  --nodes N             cluster nodes (default 3)\n"
      "  --replication N       copies per file (default 2)\n"
      "  --pending-cap N       per-destination durable-queue cap (default lib)\n"
      "  --ops N               total ops (default 200)\n"
      "  --zipf S              file popularity skew (default 1.1)\n"
      "  --seed N              traffic seed (default 42)\n"
      "  --storm-at OP         fire a revocation storm before op OP\n"
      "  --storm-size N        revocations in the storm (default 4)\n"
      "  --kill-at OP          kill a node before op OP\n"
      "  --kill-node I         node index to kill/restart (default 1)\n"
      "  --restart-at OP       restart the killed node before op OP\n"
      "  --rejoin-at OP        restart via the recovery protocol before op OP,\n"
      "                        timing convergence and bytes moved\n"
      "  --recovery-stats      print the recovery section after the run\n"
      "  --slo SPEC            track objectives, e.g.\n"
      "                        download_p99_ms=250,epoch_commit_ms=2000@0.95,error_rate=0.01\n"
      "  --status-out PATH     write the aggregated cluster status JSON after the run\n"
      "  --small               use the fast insecure curve (or MAABE_BENCH_SMALL=1)\n",
      argv0);
}

void print_stats(const char* cls, const OpStats& s) {
  std::printf("  %-9s %7llu %7llu %7llu %9llu %9llu %7llu  %8.2f %8.2f %8.2f\n",
              cls, static_cast<unsigned long long>(s.attempts()),
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.denied),
              static_cast<unsigned long long>(s.degraded),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.errors), s.percentile(50),
              s.percentile(95), s.percentile(99));
}

maabe::bench::Json slo_json(const maabe::telemetry::SloStatus& s) {
  maabe::bench::Json j;
  j.put("objective", s.objective)
      .put("threshold_ms", s.threshold_ms)
      .put("samples", s.samples)
      .put("bad", s.bad)
      .put("burn_short", s.burn_short)
      .put("burn_long", s.burn_long)
      .put("met", s.met ? 1 : 0);
  return j;
}

maabe::bench::Json stats_json(const OpStats& s) {
  maabe::bench::Json j;
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

}  // namespace

int main(int argc, char** argv) {
  WorkloadConfig cfg;
  size_t storm_at = 0, storm_size = 4, kill_at = 0, restart_at = 0;
  size_t rejoin_at = 0, kill_node = 1;
  bool has_storm = false, has_kill = false, has_restart = false;
  bool has_rejoin = false, recovery_stats = false;
  std::string status_out;
  bool small = std::getenv("MAABE_BENCH_SMALL") != nullptr &&
               std::getenv("MAABE_BENCH_SMALL")[0] == '1';

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--authorities") cfg.authorities = std::strtoull(next(), nullptr, 10);
    else if (arg == "--attributes") cfg.attributes_per_authority = std::strtoull(next(), nullptr, 10);
    else if (arg == "--users") cfg.users = std::strtoull(next(), nullptr, 10);
    else if (arg == "--set-size") cfg.users_per_attribute_set = std::strtoull(next(), nullptr, 10);
    else if (arg == "--files") cfg.files = std::strtoull(next(), nullptr, 10);
    else if (arg == "--nodes") cfg.nodes = std::strtoull(next(), nullptr, 10);
    else if (arg == "--replication") cfg.replication = std::strtoull(next(), nullptr, 10);
    else if (arg == "--pending-cap") cfg.pending_cap = std::strtoull(next(), nullptr, 10);
    else if (arg == "--ops") cfg.ops = std::strtoull(next(), nullptr, 10);
    else if (arg == "--zipf") cfg.zipf_s = std::strtod(next(), nullptr);
    else if (arg == "--seed") cfg.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--storm-at") { storm_at = std::strtoull(next(), nullptr, 10); has_storm = true; }
    else if (arg == "--storm-size") storm_size = std::strtoull(next(), nullptr, 10);
    else if (arg == "--kill-at") { kill_at = std::strtoull(next(), nullptr, 10); has_kill = true; }
    else if (arg == "--kill-node") kill_node = std::strtoull(next(), nullptr, 10);
    else if (arg == "--restart-at") { restart_at = std::strtoull(next(), nullptr, 10); has_restart = true; }
    else if (arg == "--rejoin-at") { rejoin_at = std::strtoull(next(), nullptr, 10); has_rejoin = true; }
    else if (arg == "--recovery-stats") recovery_stats = true;
    else if (arg == "--slo") cfg.slo_spec = next();
    else if (arg == "--status-out") status_out = next();
    else if (arg == "--small") small = true;
    else if (arg == "--help" || arg == "-h") { usage(argv[0]); return 0; }
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  const std::string node = "node:" + std::to_string(kill_node);
  if (has_storm)
    cfg.events.push_back({storm_at, ScenarioEvent::Kind::kRevocationStorm, "", storm_size});
  if (has_kill) cfg.events.push_back({kill_at, ScenarioEvent::Kind::kKillNode, node, 0});
  if (has_restart)
    cfg.events.push_back({restart_at, ScenarioEvent::Kind::kRestartNode, node, 0});
  if (has_rejoin)
    cfg.events.push_back({rejoin_at, ScenarioEvent::Kind::kRejoinNode, node, 0});

  auto grp = small ? maabe::pairing::Group::test_small()
                   : maabe::pairing::Group::pbc_a512();
  std::printf("curve: %s\n", small ? "test_small (192-bit, insecure)"
                                   : "pbc_a512 (512-bit, paper setting)");
  std::printf("world: %zu authorities x %zu attrs, %zu users (sets of %zu), "
              "%zu files, %zu nodes (replication %zu), %zu ops\n",
              cfg.authorities, cfg.attributes_per_authority, cfg.users,
              cfg.users_per_attribute_set, cfg.files, cfg.nodes, cfg.replication,
              cfg.ops);

  LoadGenerator gen(grp, cfg);
  gen.setup();
  const WorkloadReport report = gen.run();

  std::printf("\n  %-9s %7s %7s %7s %9s %9s %7s  %8s %8s %8s\n", "op",
              "attempts", "ok", "denied", "degraded", "rejected", "errors",
              "p50(ms)", "p95(ms)", "p99(ms)");
  for (const auto& [cls, stats] : report.per_op) print_stats(cls.c_str(), stats);
  std::printf("\n  total ops %llu in %.3f s -> %.1f op/s  (users now: %zu)\n",
              static_cast<unsigned long long>(report.total_ops),
              report.wall_seconds, report.achieved_qps(), gen.user_count());
  std::printf("  decrypt cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(report.decrypt_cache_hits),
              static_cast<unsigned long long>(report.decrypt_cache_misses));
  std::printf("  admission: %llu queue rejections\n",
              static_cast<unsigned long long>(report.parked_rejected));
  if (!report.slo.empty()) {
    std::printf("\n  %-18s %9s %9s %7s %10s %10s %5s\n", "slo", "samples",
                "bad", "target", "burn_short", "burn_long", "met");
    for (const auto& s : report.slo) {
      std::printf("  %-18s %9llu %9llu %7.3f %10.3f %10.3f %5s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.samples),
                  static_cast<unsigned long long>(s.bad), s.objective,
                  s.burn_short, s.burn_long, s.met ? "yes" : "NO");
    }
  }
  if (recovery_stats) {
    std::printf("  recovery: %llu rejoins converged in %.2f ms, "
                "%llu files / %llu bytes transferred, "
                "%llu hints replayed, %llu epochs resolved\n",
                static_cast<unsigned long long>(report.rejoins),
                report.recovery_convergence_ms,
                static_cast<unsigned long long>(report.recovery_files_transferred),
                static_cast<unsigned long long>(report.recovery_bytes_transferred),
                static_cast<unsigned long long>(report.recovery_hints_replayed),
                static_cast<unsigned long long>(report.recovery_epochs_resolved));
  }

  maabe::bench::Json per_op;
  for (const auto& [cls, stats] : report.per_op) per_op.put(cls, stats_json(stats));
  maabe::bench::Json root;
  root.put("bench", "workload")
      .put("curve", small ? "test_small" : "pbc_a512")
      .put("ops", report.total_ops)
      .put("wall_seconds", report.wall_seconds)
      .put("achieved_qps", report.achieved_qps())
      .put("per_op", per_op)
      .put("decrypt_cache_hits", report.decrypt_cache_hits)
      .put("decrypt_cache_misses", report.decrypt_cache_misses)
      .put("parked_rejected", report.parked_rejected)
      .put("rejoins", report.rejoins)
      .put("recovery_convergence_ms", report.recovery_convergence_ms)
      .put("recovery_bytes_transferred", report.recovery_bytes_transferred)
      .put("recovery_files_transferred", report.recovery_files_transferred)
      .put("recovery_hints_replayed", report.recovery_hints_replayed)
      .put("recovery_epochs_resolved", report.recovery_epochs_resolved);
  if (!report.slo.empty()) {
    maabe::bench::Json slo;
    for (const auto& s : report.slo) slo.put(s.name, slo_json(s));
    root.put("slo", slo);
    for (const auto& s : report.slo)
      root.put("slo_" + s.name + "_met", s.met ? 1 : 0);
  }
  maabe::bench::write_bench_json("workload_cli", root);
  if (!status_out.empty()) {
    std::FILE* f = std::fopen(status_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open '%s'\n", status_out.c_str());
      return 1;
    }
    const std::string status = gen.system().status_json();
    std::fwrite(status.data(), 1, status.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("  status written to %s\n", status_out.c_str());
  }
  return 0;
}
