// Closed-loop workload harness for the multi-node CloudSystem
// (DESIGN.md §14).
//
// Synthesizes the production traffic the paper's deployment implies:
// many users partitioned into attribute sets, Zipf-skewed file
// popularity, a mixed store/download/revoke stream with user churn, and
// scripted fault scenarios (revocation storms, node kill/restart). The
// driver is closed-loop — one op completes before the next is issued —
// so per-op latency is the full client-observed path through the
// Transport (serialize, frame, retry, quorum read, ABE decrypt).
//
// Every op records an exact latency sample per op class (for precise
// p50/p95/p99 in the report) and mirrors into the telemetry registry
// (maabe_workload_<op>_latency_ns histograms, maabe_workload_ops_total),
// so the same run feeds both BENCH_workload.json and a live scrape.
//
// Determinism: traffic is driven by a seeded Drbg (file choice, op mix,
// user choice) on the system's virtual transport clock. Wall-clock
// latency measurements are the only nondeterministic output.
#pragma once

#include <chrono>

#include "cloud/system.h"
#include "crypto/drbg.h"
#include "telemetry/slo.h"

namespace maabe::loadgen {

/// Zipf(s) over ranks 0..n-1: P(rank) ∝ 1/(rank+1)^s, sampled by
/// inverse CDF from a Drbg. s == 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t sample(crypto::Drbg& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
};

/// A scripted fault injected before the op with index `at_op`.
struct ScenarioEvent {
  enum class Kind {
    kRevocationStorm,  ///< `revocations` back-to-back revoke ops
    kKillNode,         ///< kill `node` (authority outage for its shards)
    kRestartNode,      ///< restart `node` (reconcile + replay)
    kRejoinNode,       ///< restart `node`, timing the recovery protocol
                       ///< (hints + anti-entropy + epoch resolution) and
                       ///< folding the deltas into the report
  };
  size_t at_op = 0;
  Kind kind = Kind::kRevocationStorm;
  std::string node;         ///< kKillNode / kRestartNode
  size_t revocations = 0;   ///< kRevocationStorm burst size
};

struct WorkloadConfig {
  // ---- world shape ----
  size_t authorities = 2;
  size_t attributes_per_authority = 2;
  /// Initial user pool. Users are partitioned into attribute sets of
  /// `users_per_attribute_set`: set s holds attribute (s mod k) from
  /// every authority, so files (single-attribute policies, round-robin
  /// over the attribute universe) are each openable by 1/k of the pool.
  size_t users = 8;
  size_t users_per_attribute_set = 2;
  size_t files = 16;
  // ---- cluster shape ----
  size_t nodes = 3;
  size_t replication = 2;
  /// Per-destination durable-queue cap (0 = library default).
  size_t pending_cap = 0;
  // ---- traffic ----
  size_t ops = 200;
  double zipf_s = 1.1;          ///< file popularity skew
  double store_weight = 0.15;   ///< owner re-uploads a file (new version)
  double download_weight = 0.72;
  double revoke_weight = 0.03;  ///< attribute revocation (full epoch)
  double churn_weight = 0.10;   ///< enroll a new user (keys issued)
  uint64_t seed = 42;
  /// Replay parked deliveries every N ops (the "background daemon");
  /// 0 disables periodic flushing.
  size_t flush_every = 16;
  std::vector<ScenarioEvent> events;
  /// SLO spec (SloPlane::parse grammar); empty = no objectives tracked.
  /// The harness feeds "download_p99_ms" (downloads), "epoch_commit_ms"
  /// (revocation epochs) and "error_rate" (every op) unconditionally;
  /// this spec decides which of them are scored.
  std::string slo_spec;
};

/// Latency/outcome accounting for one op class.
struct OpStats {
  uint64_t ok = 0;        ///< completed; downloads additionally all_ok
  uint64_t denied = 0;    ///< download opened no slot (revoked/no key)
  uint64_t degraded = 0;  ///< TransportError kDegraded (fail-closed read)
  uint64_t rejected = 0;  ///< TransportError kOverloaded
  uint64_t errors = 0;    ///< any other typed error
  std::vector<double> latencies_ms;  ///< one exact sample per attempt

  uint64_t attempts() const { return ok + denied + degraded + rejected + errors; }
  /// Nearest-rank percentile over the recorded samples; q in [0,100].
  double percentile(double q) const;
};

struct WorkloadReport {
  std::map<std::string, OpStats> per_op;  // "store"/"download"/"revoke"/"churn"
  uint64_t total_ops = 0;
  double wall_seconds = 0;
  double achieved_qps() const {
    return wall_seconds > 0 ? static_cast<double>(total_ops) / wall_seconds : 0.0;
  }
  uint64_t ok_total() const;
  // ---- system-level deltas over the run ----
  uint64_t decrypt_cache_hits = 0;
  uint64_t decrypt_cache_misses = 0;
  uint64_t parked_rejected = 0;  ///< durable-queue cap rejections

  // ---- recovery (populated by kRejoinNode events) ----
  uint64_t rejoins = 0;                       ///< kRejoinNode events fired
  double recovery_convergence_ms = 0;         ///< wall time of rejoin + replay
  uint64_t recovery_bytes_transferred = 0;    ///< hint + anti-entropy payloads
  uint64_t recovery_files_transferred = 0;
  uint64_t recovery_hints_replayed = 0;
  uint64_t recovery_epochs_resolved = 0;      ///< commit + presumed-abort

  /// SLO state at the end of the run (one entry per configured
  /// objective; empty when no --slo spec was given). Statuses carry
  /// lifetime counters from the generator's plane, so merging keeps
  /// the newest snapshot rather than summing.
  std::vector<telemetry::SloStatus> slo;

  /// Merges another report into this one (for phase-wise runs).
  WorkloadReport& operator+=(const WorkloadReport& o);
};

class LoadGenerator {
 public:
  LoadGenerator(std::shared_ptr<const pairing::Group> grp, WorkloadConfig cfg);

  /// Enrolls the world (authorities, owner, user pool, initial files).
  /// Must be called once before run().
  void setup();

  /// Executes cfg.ops ops, firing scripted events at their indices.
  WorkloadReport run();

  /// Executes `n` ops starting at the current op cursor (events with
  /// at_op inside the window fire). Lets tests drive phases —
  /// pre-outage / outage / recovered — and assert SLOs per phase.
  WorkloadReport run_ops(size_t n);

  cloud::CloudSystem& system() { return *sys_; }
  const WorkloadConfig& config() const { return cfg_; }
  /// Users enrolled so far (pool + churn).
  size_t user_count() const { return user_ids_.size(); }
  /// The SLO plane driven by this generator (empty without a spec).
  const telemetry::SloPlane& slo_plane() const { return slo_; }

 private:
  struct UserState {
    std::string uid;
    size_t attr_index = 0;  ///< which attribute of each authority it holds
    bool revoked = false;   ///< lost its attribute to a revoke op
  };

  std::string aid_of(size_t i) const;
  std::string attr_of(size_t j) const;    ///< unqualified name
  std::string file_of(size_t f) const;
  size_t attr_index_of_file(size_t f) const;
  std::string policy_of(size_t f) const;  ///< single qualified attribute

  double uniform(crypto::Drbg& rng);
  size_t uniform_below(crypto::Drbg& rng, size_t bound);

  void enroll_user(size_t set_index);  ///< register + assign + issue keys
  void upload_file(size_t f);

  void fire_event(const ScenarioEvent& ev, WorkloadReport& report);
  void do_store(WorkloadReport& report);
  void do_download(WorkloadReport& report);
  void do_revoke(WorkloadReport& report);
  void do_churn(WorkloadReport& report);
  /// Runs `fn` under the latency clock and classifies its outcome into
  /// `stats`. `fn` returns false for a denied download, true otherwise.
  void timed(OpStats& stats, const std::string& op_class,
             const std::function<bool()>& fn);

  std::shared_ptr<const pairing::Group> grp_;
  WorkloadConfig cfg_;
  crypto::Drbg rng_;
  std::unique_ptr<cloud::CloudSystem> sys_;
  telemetry::SloPlane slo_;
  ZipfSampler file_zipf_;
  std::vector<UserState> users_;
  std::vector<std::string> user_ids_;
  std::vector<uint64_t> file_revision_;  ///< uploads per file
  size_t op_cursor_ = 0;                 ///< ops executed so far
  bool setup_done_ = false;
};

}  // namespace maabe::loadgen
