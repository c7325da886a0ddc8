#include "loadgen/loadgen.h"

#include <algorithm>
#include <cmath>

namespace maabe::loadgen {

using cloud::CloudSystem;

namespace {

/// Registry handles for the workload metrics (one histogram per op
/// class — the registry has no labels, so the class is in the name).
struct WorkloadMetrics {
  telemetry::Counter& ops;
  telemetry::Counter& failures;
  telemetry::Histogram& store_ns;
  telemetry::Histogram& download_ns;
  telemetry::Histogram& revoke_ns;
  telemetry::Histogram& churn_ns;

  static WorkloadMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    const std::vector<uint64_t> bounds = telemetry::Histogram::latency_ns_bounds();
    static WorkloadMetrics* m = new WorkloadMetrics{
        reg.counter("maabe_workload_ops_total"),
        reg.counter("maabe_workload_failures_total"),
        reg.histogram("maabe_workload_store_latency_ns", bounds),
        reg.histogram("maabe_workload_download_latency_ns", bounds),
        reg.histogram("maabe_workload_revoke_latency_ns", bounds),
        reg.histogram("maabe_workload_churn_latency_ns", bounds),
    };
    return *m;
  }

  telemetry::Histogram& for_class(const std::string& op_class) {
    if (op_class == "store") return store_ns;
    if (op_class == "download") return download_ns;
    if (op_class == "revoke") return revoke_ns;
    return churn_ns;
  }
};

}  // namespace

// ----------------------------------------------------- ZipfSampler --

ZipfSampler::ZipfSampler(size_t n, double s) {
  if (n == 0) n = 1;
  cdf_.reserve(n);
  double total = 0;
  for (size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

size_t ZipfSampler::sample(crypto::Drbg& rng) const {
  const Bytes raw = rng.bytes(8);
  uint64_t u = 0;
  for (size_t i = 0; i < 8; ++i) u = (u << 8) | raw[i];
  // 53 uniform mantissa bits -> [0, 1).
  const double x = static_cast<double>(u >> 11) / 9007199254740992.0;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
  return static_cast<size_t>(it - cdf_.begin());
}

// --------------------------------------------------------- OpStats --

double OpStats::percentile(double q) const {
  if (latencies_ms.empty()) return 0.0;
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q / 100.0 * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

uint64_t WorkloadReport::ok_total() const {
  uint64_t n = 0;
  for (const auto& [cls, stats] : per_op) n += stats.ok;
  return n;
}

WorkloadReport& WorkloadReport::operator+=(const WorkloadReport& o) {
  for (const auto& [cls, stats] : o.per_op) {
    OpStats& mine = per_op[cls];
    mine.ok += stats.ok;
    mine.denied += stats.denied;
    mine.degraded += stats.degraded;
    mine.rejected += stats.rejected;
    mine.errors += stats.errors;
    mine.latencies_ms.insert(mine.latencies_ms.end(), stats.latencies_ms.begin(),
                             stats.latencies_ms.end());
  }
  total_ops += o.total_ops;
  wall_seconds += o.wall_seconds;
  decrypt_cache_hits += o.decrypt_cache_hits;
  decrypt_cache_misses += o.decrypt_cache_misses;
  parked_rejected += o.parked_rejected;
  rejoins += o.rejoins;
  recovery_convergence_ms += o.recovery_convergence_ms;
  recovery_bytes_transferred += o.recovery_bytes_transferred;
  recovery_files_transferred += o.recovery_files_transferred;
  recovery_hints_replayed += o.recovery_hints_replayed;
  recovery_epochs_resolved += o.recovery_epochs_resolved;
  // SLO statuses are lifetime snapshots of one shared plane: the later
  // phase's snapshot subsumes the earlier one.
  if (!o.slo.empty()) slo = o.slo;
  return *this;
}

// --------------------------------------------------- LoadGenerator --

LoadGenerator::LoadGenerator(std::shared_ptr<const pairing::Group> grp,
                             WorkloadConfig cfg)
    : grp_(std::move(grp)), cfg_(std::move(cfg)),
      rng_("loadgen-" + std::to_string(cfg_.seed)),
      file_zipf_(cfg_.files == 0 ? 1 : cfg_.files, cfg_.zipf_s) {
  if (cfg_.authorities == 0) cfg_.authorities = 1;
  if (cfg_.attributes_per_authority == 0) cfg_.attributes_per_authority = 1;
  if (cfg_.users == 0) cfg_.users = 1;
  if (cfg_.users_per_attribute_set == 0) cfg_.users_per_attribute_set = 1;
  if (cfg_.files == 0) cfg_.files = 1;
  cloud::ClusterConfig cluster;
  cluster.nodes = cfg_.nodes;
  cluster.replication = cfg_.replication;
  sys_ = std::make_unique<CloudSystem>(
      grp_, "loadgen-" + std::to_string(cfg_.seed),
      std::make_unique<cloud::LoopbackTransport>(), cloud::RetryPolicy(), cluster);
  if (cfg_.pending_cap > 0) sys_->set_pending_cap(cfg_.pending_cap);
  if (!cfg_.slo_spec.empty())
    slo_ = telemetry::SloPlane(telemetry::SloPlane::parse(cfg_.slo_spec));
  file_revision_.assign(cfg_.files, 0);
}

std::string LoadGenerator::aid_of(size_t i) const {
  return "A" + std::to_string(i);
}

std::string LoadGenerator::attr_of(size_t j) const {
  return "attr" + std::to_string(j);
}

std::string LoadGenerator::file_of(size_t f) const {
  return "file" + std::to_string(f);
}

size_t LoadGenerator::attr_index_of_file(size_t f) const {
  return f % cfg_.attributes_per_authority;
}

std::string LoadGenerator::policy_of(size_t f) const {
  const size_t j = attr_index_of_file(f);
  const size_t i = (f / cfg_.attributes_per_authority) % cfg_.authorities;
  return attr_of(j) + "@" + aid_of(i);
}

double LoadGenerator::uniform(crypto::Drbg& rng) {
  const Bytes raw = rng.bytes(8);
  uint64_t u = 0;
  for (size_t i = 0; i < 8; ++i) u = (u << 8) | raw[i];
  return static_cast<double>(u >> 11) / 9007199254740992.0;
}

size_t LoadGenerator::uniform_below(crypto::Drbg& rng, size_t bound) {
  if (bound <= 1) return 0;
  return static_cast<size_t>(uniform(rng) * static_cast<double>(bound)) % bound;
}

void LoadGenerator::enroll_user(size_t set_index) {
  const std::string uid = "u" + std::to_string(user_ids_.size());
  const size_t attr_index = set_index % cfg_.attributes_per_authority;
  sys_->add_user(uid);
  for (size_t i = 0; i < cfg_.authorities; ++i) {
    sys_->assign_attributes(aid_of(i), uid, {attr_of(attr_index)});
    sys_->issue_user_key(aid_of(i), uid, "org");
  }
  users_.push_back({uid, attr_index, false});
  user_ids_.push_back(uid);
}

void LoadGenerator::upload_file(size_t f) {
  // Owner-side EncryptionRecords are keyed by (file_id, component), so a
  // re-upload (new version of the file) gets a revision-qualified slot
  // name; the store's write replaces the whole file either way. The
  // revision is consumed up front: protect() registers the record even
  // when the send is then rejected, so a retry needs a fresh slot name.
  const uint64_t rev = ++file_revision_[f];
  const std::string slot = rev == 1 ? "data" : "data#r" + std::to_string(rev);
  const std::string content = file_of(f) + " rev " + std::to_string(rev);
  sys_->upload("org", file_of(f), {{slot, bytes_of(content), policy_of(f)}});
}

void LoadGenerator::setup() {
  if (setup_done_) return;
  for (size_t i = 0; i < cfg_.authorities; ++i) {
    std::set<std::string> attrs;
    for (size_t j = 0; j < cfg_.attributes_per_authority; ++j)
      attrs.insert(attr_of(j));
    sys_->add_authority(aid_of(i), attrs);
  }
  sys_->add_owner("org");
  for (size_t i = 0; i < cfg_.authorities; ++i)
    sys_->publish_authority_keys(aid_of(i), "org");
  for (size_t u = 0; u < cfg_.users; ++u)
    enroll_user(u / cfg_.users_per_attribute_set);
  for (size_t f = 0; f < cfg_.files; ++f) upload_file(f);
  setup_done_ = true;
}

void LoadGenerator::timed(OpStats& stats, const std::string& op_class,
                          const std::function<bool()>& fn) {
  WorkloadMetrics& metrics = WorkloadMetrics::get();
  const auto start = std::chrono::steady_clock::now();
  enum { kOk, kDenied, kDegraded, kRejected, kError } outcome = kOk;
  try {
    if (!fn()) outcome = kDenied;
  } catch (const TransportError& e) {
    switch (e.kind()) {
      case TransportError::Kind::kDegraded:
        outcome = kDegraded;
        break;
      case TransportError::Kind::kOverloaded:
        outcome = kRejected;
        break;
      default:
        outcome = kError;
        break;
    }
  } catch (const Error&) {
    outcome = kError;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  const double ms = static_cast<double>(ns) / 1e6;
  stats.latencies_ms.push_back(ms);
  metrics.ops.inc();
  metrics.for_class(op_class).observe(static_cast<uint64_t>(ns));
  // SLO feed (no-ops for objectives the spec does not track). A denied
  // download is a correct authorization outcome, not an SLO violation;
  // degraded/rejected/error all burn budget.
  const bool slo_failed = outcome == kDegraded || outcome == kRejected ||
                          outcome == kError;
  if (op_class == "download") slo_.observe("download_p99_ms", ms, slo_failed);
  if (op_class == "revoke") slo_.observe("epoch_commit_ms", ms, slo_failed);
  slo_.observe("error_rate", ms, slo_failed);
  switch (outcome) {
    case kOk:
      ++stats.ok;
      break;
    case kDenied:
      ++stats.denied;
      break;
    case kDegraded:
      ++stats.degraded;
      break;
    case kRejected:
      ++stats.rejected;
      break;
    case kError:
      ++stats.errors;
      metrics.failures.inc();
      break;
  }
}

void LoadGenerator::do_store(WorkloadReport& report) {
  const size_t f = file_zipf_.sample(rng_);
  timed(report.per_op["store"], "store", [&] {
    upload_file(f);
    return true;
  });
}

void LoadGenerator::do_download(WorkloadReport& report) {
  const size_t f = file_zipf_.sample(rng_);
  const size_t want_attr = attr_index_of_file(f);
  // Prefer a user that can actually open the file; fall back to anyone
  // (an authorized denial is a legitimate workload outcome).
  std::vector<size_t> eligible;
  for (size_t i = 0; i < users_.size(); ++i) {
    if (!users_[i].revoked && users_[i].attr_index == want_attr)
      eligible.push_back(i);
  }
  const size_t who = eligible.empty()
                         ? uniform_below(rng_, users_.size())
                         : eligible[uniform_below(rng_, eligible.size())];
  const std::string uid = users_[who].uid;
  timed(report.per_op["download"], "download", [&] {
    const CloudSystem::DownloadReport rep = sys_->download_report(uid, file_of(f));
    if (rep.all_ok()) return true;
    if (rep.any_corrupt())
      throw SchemeError("loadgen: corrupt slot in '" + rep.file_id + "'");
    for (const auto& slot : rep.slots) {
      if (slot.state == CloudSystem::SlotState::kError)
        throw SchemeError("loadgen: slot error: " + slot.detail);
    }
    return false;  // denied (kNoKey) — expected for revoked/ineligible users
  });
}

void LoadGenerator::do_revoke(WorkloadReport& report) {
  // Revoke from the newest non-revoked user whose attribute class keeps
  // at least one other live holder, so the workload never revokes away
  // the last reader of a popularity class.
  size_t victim = users_.size();
  for (size_t i = users_.size(); i-- > 0;) {
    if (users_[i].revoked) continue;
    size_t holders = 0;
    for (const UserState& u : users_) {
      if (!u.revoked && u.attr_index == users_[i].attr_index) ++holders;
    }
    if (holders >= 2) {
      victim = i;
      break;
    }
  }
  if (victim == users_.size()) {
    do_download(report);  // nothing safely revocable; keep the op budget
    return;
  }
  UserState& user = users_[victim];
  const size_t authority = uniform_below(rng_, cfg_.authorities);
  timed(report.per_op["revoke"], "revoke", [&] {
    sys_->revoke_attribute(aid_of(authority), user.uid, attr_of(user.attr_index));
    user.revoked = true;
    return true;
  });
}

void LoadGenerator::do_churn(WorkloadReport& report) {
  const size_t set_index = user_ids_.size() / cfg_.users_per_attribute_set;
  timed(report.per_op["churn"], "churn", [&] {
    enroll_user(set_index);
    return true;
  });
}

void LoadGenerator::fire_event(const ScenarioEvent& ev, WorkloadReport& report) {
  switch (ev.kind) {
    case ScenarioEvent::Kind::kRevocationStorm:
      for (size_t r = 0; r < ev.revocations; ++r) do_revoke(report);
      break;
    case ScenarioEvent::Kind::kKillNode:
      sys_->cluster().kill_node(ev.node);
      break;
    case ScenarioEvent::Kind::kRestartNode:
      sys_->cluster().restart_node(ev.node);
      sys_->flush_pending();  // queue replay — the recovery daemon
      break;
    case ScenarioEvent::Kind::kRejoinNode: {
      // Same restart + replay as kRestartNode, but bracketed by the
      // recovery counters so the report carries how much the rejoin
      // protocol (hint drain + anti-entropy + epoch resolution) moved
      // and how long convergence took.
      const cloud::RecoveryStats before = sys_->cluster().recovery().stats();
      const auto t0 = std::chrono::steady_clock::now();
      sys_->cluster().restart_node(ev.node);
      sys_->flush_pending();
      report.recovery_convergence_ms +=
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const cloud::RecoveryStats after = sys_->cluster().recovery().stats();
      ++report.rejoins;
      report.recovery_bytes_transferred +=
          after.bytes_transferred - before.bytes_transferred;
      report.recovery_files_transferred +=
          after.files_transferred - before.files_transferred;
      report.recovery_hints_replayed +=
          after.hints_replayed - before.hints_replayed;
      report.recovery_epochs_resolved +=
          (after.epochs_resolved_commit + after.epochs_resolved_abort) -
          (before.epochs_resolved_commit + before.epochs_resolved_abort);
      break;
    }
  }
}

WorkloadReport LoadGenerator::run_ops(size_t n) {
  setup();
  WorkloadReport report;
  const uint64_t rejected_before = sys_->parked_rejected_total();
  uint64_t cache_hits_before = 0, cache_misses_before = 0;
  for (const std::string& uid : user_ids_) {
    cache_hits_before += sys_->user(uid).decrypt_cache_hits();
    cache_misses_before += sys_->user(uid).decrypt_cache_misses();
  }

  const double total_weight = cfg_.store_weight + cfg_.download_weight +
                              cfg_.revoke_weight + cfg_.churn_weight;
  const auto wall_start = std::chrono::steady_clock::now();
  const size_t end = op_cursor_ + n;
  for (; op_cursor_ < end; ++op_cursor_) {
    for (const ScenarioEvent& ev : cfg_.events) {
      if (ev.at_op == op_cursor_) fire_event(ev, report);
    }
    const double r = uniform(rng_) * total_weight;
    if (r < cfg_.store_weight) {
      do_store(report);
    } else if (r < cfg_.store_weight + cfg_.download_weight) {
      do_download(report);
    } else if (r < cfg_.store_weight + cfg_.download_weight + cfg_.revoke_weight) {
      do_revoke(report);
    } else {
      do_churn(report);
    }
    if (cfg_.flush_every > 0 && (op_cursor_ + 1) % cfg_.flush_every == 0)
      sys_->flush_pending();
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  for (const auto& [cls, stats] : report.per_op) report.total_ops += stats.attempts();

  report.parked_rejected = sys_->parked_rejected_total() - rejected_before;
  for (const std::string& uid : user_ids_) {
    report.decrypt_cache_hits += sys_->user(uid).decrypt_cache_hits();
    report.decrypt_cache_misses += sys_->user(uid).decrypt_cache_misses();
  }
  report.decrypt_cache_hits -= cache_hits_before;
  report.decrypt_cache_misses -= cache_misses_before;
  if (!slo_.empty()) {
    report.slo = slo_.status();
    slo_.export_gauges();  // burn rates ride the registry snapshot
  }
  return report;
}

WorkloadReport LoadGenerator::run() { return run_ops(cfg_.ops); }

}  // namespace maabe::loadgen
