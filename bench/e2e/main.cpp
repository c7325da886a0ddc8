// maabe-bench: one run of one workload of the end-to-end benchmark
// (README.md in this directory).
//
//   maabe-bench --workload NAME --seed N --seconds S --trace 0|1
//               [--small] [--setup-only] [--trace-out PATH]
//
// --trace 0 builds the workload's world (timed as setup_s), runs the
// enrolment/revocation probes and then S seconds of closed-loop traffic,
// and reports the end-to-end metrics in the host gauge's reference time
// (gauge.h). --setup-only stops after the timed setup; run.py adds such
// processes so setup_s is a median over cold starts. The host gauge
// samples from its timer signal for the whole run. --trace 1 runs the
// same workload twice for S/2 seconds each, once untraced and once with
// every span captured in memory, and reports the per-layer ledger; the
// spans go to --trace-out at exit.
//
// Prints a readable summary, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status: 0 when every correctness check held, 1 on a violation,
// 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ledger.h"
#include "workload.h"

namespace maabe::e2e {
namespace {

using Clock = gauge::Clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool setup_only = false;
  std::string trace_out = "trace.jsonl";
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      a->small = true;
      continue;
    }
    if (flag == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (!(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

std::shared_ptr<const pairing::Group> make_group(bool small) {
  return small ? pairing::Group::test_small() : pairing::Group::pbc_a512();
}

/// Joins the pool of a group's engine before the group is dropped, so
/// the process never holds more engine threads than one engine's.
void retire(const pairing::Group& grp) { engine::CryptoEngine::for_group(grp).set_threads(1); }

/// Linear-interpolation quantile (0 for no samples).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per(double x, double n) { return n > 0 ? x / n : 0; }

struct Outcome {
  MetricList metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;

  void absorb(const OpLog& log) {
    attempted += log.attempted;
    failed += log.failed;
  }
  void absorb(const World& w) {
    violations.insert(violations.end(), w.violations().begin(), w.violations().end());
  }
  void put(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, Metric{value, unit}});
  }
};

/// One measured pass: the probes, then the traffic. Revocation and
/// enrolment latencies come from the probes, which run at the same point
/// of every run; downloads, uploads and the throughput come from the
/// traffic. Every time is in reference time (gauge.h).
struct Pass {
  OpLog probes;
  TrafficResult traffic;

  std::vector<double> latencies(OpClass c) const {
    return c == OpClass::kRevoke || c == OpClass::kEnrol ? probes.latencies(c)
                                                         : traffic.log.latencies(c);
  }
  double p(OpClass c, double q) const { return quantile(latencies(c), q); }
  double throughput() const { return traffic.log.throughput(); }
};

Pass run_pass(World& world, double seconds) {
  Pass pass;
  world.probe(pass.probes);
  pass.traffic = world.traffic(seconds);
  return pass;
}

void print_pass(const char* label, const Pass& pass) {
  std::printf("%s: %llu traffic ops, %.2f ops/s\n", label,
              static_cast<unsigned long long>(pass.traffic.ops), pass.throughput());
  std::printf("  gauge: %zu readings, mean %.2f us\n", gauge::readings(), gauge::mean_us());
  for (const OpClass c : kClasses) {
    const std::vector<double> v = pass.latencies(c);
    std::printf("  %-9s n %-6zu p50 %9.3f ms  p90 %9.3f ms%s\n", class_name(c), v.size(),
                quantile(v, 0.5), quantile(v, 0.9),
                c == OpClass::kRevoke || c == OpClass::kEnrol ? "  (probes)" : "");
  }
}

Outcome run_untraced(const WorkloadSpec& spec, const Args& args) {
  Outcome out;
  const auto taken = gauge::taken();
  const auto t0 = Clock::now();
  const auto grp = make_group(args.small);
  World world(grp, spec, args.seed);
  world.build();
  const auto t1 = Clock::now();
  const double setup_s = std::chrono::duration<double>(t1 - t0 - (gauge::taken() - taken)).count();
  out.put("setup_s", setup_s * gauge::scale(t0, t1), "s");
  if (args.setup_only) return out;

  const Pass pass = run_pass(world, args.seconds);
  print_pass(spec.name.c_str(), pass);
  out.absorb(pass.probes);
  out.absorb(pass.traffic.log);
  out.absorb(world);

  out.put("throughput_ops", pass.throughput(), "ops/s");
  out.put("download_p50_ms", pass.p(OpClass::kDownload, 0.5), "ms");
  out.put("download_p90_ms", pass.p(OpClass::kDownload, 0.9), "ms");
  out.put("upload_p50_ms", pass.p(OpClass::kUpload, 0.5), "ms");
  out.put("revoke_p50_ms", pass.p(OpClass::kRevoke, 0.5), "ms");
  out.put("enrol_p50_ms", pass.p(OpClass::kEnrol, 0.5), "ms");
  out.put("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

double rung(const MetricList& rungs, const std::string& name) {
  for (const auto& [n, m] : rungs) {
    if (n == name) return m.value;
  }
  throw std::runtime_error("e2e: missing ladder rung " + name);
}

void print_self_times(const SelfTimes& st) {
  std::printf("self time per op (us):\n");
  for (const auto& [cls, names] : st.ns) {
    std::printf("  bench.%s\n", cls.c_str());
    const uint64_t roots = st.spans.at(cls).at("bench." + cls);
    for (const auto& [name, ns] : names) {
      std::printf("    %-26s %12.3f  (%llu spans)\n", name.c_str(),
                  per(ns, static_cast<double>(roots)) / 1e3,
                  static_cast<unsigned long long>(st.spans.at(cls).at(name)));
    }
  }
}

Outcome run_traced(const WorkloadSpec& spec, const Args& args) {
  Outcome out;
  const double half = args.seconds / 2;

  // Untraced reference for the tracing overhead, on its own group.
  double untraced_ops = 0;
  {
    const auto grp = make_group(args.small);
    World world(grp, spec, args.seed);
    world.build();
    const Pass pass = run_pass(world, half);
    print_pass("untraced", pass);
    untraced_ops = pass.throughput();
    out.absorb(pass.probes);
    out.absorb(pass.traffic.log);
    out.absorb(world);
    retire(*grp);
  }

  const auto grp = make_group(args.small);
  World world(grp, spec, args.seed);
  world.build();
  CounterLedger ledger(*grp);
  SpanCapture capture;
  world.set_observer(&ledger);
  capture.start();
  const Pass pass = run_pass(world, half);
  capture.stop();
  world.set_observer(nullptr);
  print_pass("traced", pass);
  out.absorb(pass.probes);
  out.absorb(pass.traffic.log);

  const SelfTimes st = self_times(capture.spans());
  print_self_times(st);
  const double owner_cts =
      per(static_cast<double>(world.system().owner(kOwner).tracked_ciphertexts()),
          static_cast<double>(spec.files));
  const MetricList rungs = ladder(world);
  out.absorb(world);
  capture.write_jsonl(args.trace_out);

  using C = CounterLedger::Counts;
  const C& dl = ledger.of(OpClass::kDownload);
  const C& up = ledger.of(OpClass::kUpload);
  const C& rv = ledger.of(OpClass::kRevoke);
  const C& en = ledger.of(OpClass::kEnrol);
  const C all = ledger.total();
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const auto self = [&](const char* cls, const char* name, const C& c) {
    return st.per_op_ns(cls, name, c.ops);
  };
  const auto copy_rungs = [&](std::initializer_list<const char*> prefixes) {
    for (const auto& [name, m] : rungs) {
      for (const char* prefix : prefixes) {
        if (name.starts_with(prefix)) out.metrics.push_back({name, m});
      }
    }
  };
  copy_rungs({"math.", "pairing."});

  const engine::EngineStats& e = dl.engine;
  const double model_us =
      d(e.miller_loops - e.precomp_hits) * rung(rungs, "pairing.miller_us") +
      d(e.precomp_hits) * rung(rungs, "pairing.miller_precomp_us") +
      d(e.final_exps) * rung(rungs, "pairing.final_exp_us");
  out.put("engine.miller_loops_per_download", per(d(e.miller_loops), d(dl.ops)), "count");
  out.put("engine.final_exps_per_download", per(d(e.final_exps), d(dl.ops)), "count");
  out.put("engine.busy_ms_per_download", per(e.wall_ms(), d(dl.ops)), "ms");
  out.put("engine.model_gap_download", per(e.wall_ms() * 1e3, model_us), "ratio");
  out.put("engine.g1_exps_per_enrol", per(d(en.engine.g1_exps), d(en.ops)), "count");
  out.put("engine.table_builds_per_enrol", per(d(en.engine.table_builds), d(en.ops)), "count");
  out.put("engine.busy_ms_per_enrol", per(en.engine.wall_ms(), d(en.ops)), "ms");
  out.put("engine.table_builds_per_upload", per(d(up.engine.table_builds), d(up.ops)), "count");
  out.put("engine.busy_ms_per_upload", per(up.engine.wall_ms(), d(up.ops)), "ms");
  out.put("engine.miller_loops_per_revoke", per(d(rv.engine.miller_loops), d(rv.ops)), "count");
  out.put("engine.busy_ms_per_revoke", per(rv.engine.wall_ms(), d(rv.ops)), "ms");
  out.put("engine.precomp_hit_ratio",
          per(d(all.engine.precomp_hits), d(all.engine.miller_loops)), "ratio");
  out.put("engine.table_hit_ratio",
          per(d(all.engine.table_hits), d(all.engine.g1_exps + all.engine.gt_exps)), "ratio");

  copy_rungs({"abe.", "lsss.", "crypto.", "hybrid."});
  out.put("entities.decrypt_cache_hit_ratio",
          per(d(dl[kCacheHits]), d(dl[kCacheHits] + dl[kCacheMisses])), "ratio");
  out.put("entities.owner_cts_per_live_slot", owner_cts, "ratio");

  out.put("transport.frames_per_download", per(d(dl[kFrames]), d(dl.ops)), "count");
  out.put("transport.bytes_per_download", per(d(dl[kFrameBytes]), d(dl.ops)), "bytes");
  out.put("transport.retries_per_op", per(d(all[kRetries]), d(all.ops)), "count");
  out.put("transport.send_self_us", self("download", "transport.send", dl) / 1e3, "us");
  out.put("transport.frame_self_us", self("download", "transport.frame", dl) / 1e3, "us");
  out.put("transport.recv_self_us", self("download", "transport.recv", dl) / 1e3, "us");

  out.put("cluster.quorum_fetch_self_us", self("download", "cluster.quorum_fetch", dl) / 1e3,
          "us");
  out.put("cluster.epoch_2pc_self_ms", self("revoke", "cluster.epoch_2pc", rv) / 1e6, "ms");
  out.put("cluster.epoch_attempts_per_revoke", per(d(all[kEpochs]), d(rv.ops)), "count");
  out.put("cluster.epoch_abort_ratio", per(d(all[kEpochAborts]), d(all[kEpochs])), "ratio");
  out.put("cluster.quorum_failure_ratio",
          per(d(all[kQuorumFailures]), d(all[kQuorumReads] + all[kQuorumFailures])), "ratio");

  out.put("server.reencrypt_stage_self_ms",
          self("revoke", "server.reencrypt_stage", rv) / 1e6, "ms");
  out.put("server.slots_reencrypted_per_revoke", per(d(rv[kSlotsReencrypted]), d(rv.ops)),
          "count");
  out.put("server.fetches_per_download", per(d(dl[kFetches]), d(dl.ops)), "count");

  copy_rungs({"recovery."});
  out.put("system.download_self_us", self("download", "system.download", dl) / 1e3, "us");
  out.put("system.revoke_self_ms", self("revoke", "system.revoke_attribute", rv) / 1e6, "ms");
  out.put("bench.trace_overhead_frac", 1 - per(pass.throughput(), untraced_ops), "fraction");

  // Every time so far, like the end-to-end ones, in reference time.
  const double scale = gauge::kReferenceUs / gauge::mean_us();
  for (auto& [name, m] : out.metrics) {
    if (m.unit == "ns" || m.unit == "us" || m.unit == "ms") m.value *= scale;
  }
  out.put("bench.gauge_us", gauge::mean_us(), "us");
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(const Outcome& out) {
  for (const std::string& v : out.violations) std::printf("VIOLATION: %s\n", v.c_str());
  std::string line = "{\"correct\": ";
  line += out.violations.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, m] = out.metrics[i];
    if (i) line += ", ";
    line += json_str(name) + ": {\"value\": " + json_num(m.value) +
            ", \"unit\": " + json_str(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace maabe::e2e

int main(int argc, char** argv) {
  using namespace maabe::e2e;
  Args args;
  const WorkloadSpec* spec = nullptr;
  if (parse_args(argc, argv, &args)) spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : workload_names()) names += (names.empty() ? "" : "|") + n;
    std::fprintf(stderr,
                 "usage: %s --workload %s --seed N --seconds S --trace 0|1 "
                 "[--small] [--setup-only] [--trace-out PATH]\n",
                 argv[0], names.c_str());
    return 2;
  }
  std::printf("maabe-bench: workload %s, seed %llu, %.3g s, trace %d, curve %s, "
              "engine threads %d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.small ? "test_small" : "pbc_a512",
              maabe::engine::CryptoEngine::default_threads());
  try {
    gauge::start();
    const Outcome out = args.trace ? run_traced(*spec, args) : run_untraced(*spec, args);
    gauge::stop();
    print_result(out);
    std::fflush(stdout);
    return out.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    // Setup and the ladder run outside any op; a failure there ends the
    // run without a result.
    std::fflush(stdout);
    std::fprintf(stderr, "maabe-bench: %s\n", e.what());
    return 1;
  }
}
