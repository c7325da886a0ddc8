// Instance-labelled cloud-layer series (DESIGN.md §11): each
// CloudSystem's counters live in registry series labelled with its
// instance (and node), so two systems in one process never see each
// other's traffic, status_json() agrees with the Prometheus text field
// by field, and the bare-name families the end-to-end benchmark's
// ledger interns keep moving.
// Registered under the `observability` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/system.h"
#include "common/errors.h"
#include "telemetry/metrics.h"

namespace maabe::cloud {
namespace {

using pairing::Group;
using telemetry::Labels;
using telemetry::MetricsRegistry;

std::unique_ptr<CloudSystem> make_system(std::shared_ptr<const Group> grp,
                                         const std::string& seed) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  return std::make_unique<CloudSystem>(grp, seed, std::make_unique<LoopbackTransport>(),
                                       RetryPolicy(), cfg);
}

void enroll(CloudSystem& sys) {
  sys.add_authority("Med", {"Doctor"});
  sys.add_owner("hosp");
  sys.publish_authority_keys("Med", "hosp");
  for (const char* uid : {"alice", "bob"}) {
    sys.add_user(uid);
    sys.assign_attributes("Med", uid, {"Doctor"});
    sys.issue_user_key("Med", uid, "hosp");
  }
}

void upload(CloudSystem& sys, const std::string& file_id) {
  sys.upload("hosp", file_id, {{"a", bytes_of("rec " + file_id), "Doctor@Med"}});
}

/// Every field of the structured views, as one comparable string.
std::string describe(CloudSystem& sys) {
  std::ostringstream o;
  const ClusterStats c = sys.cluster().stats();
  o << "cluster " << c.nodes << ' ' << c.alive << ' ' << c.replication << ' '
    << c.replication_ops_sent << ' ' << c.replication_ops_applied << ' ' << c.read_repairs
    << ' ' << c.quorum_reads << ' ' << c.quorum_failures << ' ' << c.epochs_2pc << ' '
    << c.epoch_commits << ' ' << c.epoch_aborts << ' ' << c.epoch_commit_orphans << ' '
    << c.store_totals.files << ' '
    << c.store_totals.bytes << ' ' << c.store_totals.stores << ' '
    << c.store_totals.fetches << ' ' << c.store_totals.reencrypted_slots << ' '
    << c.store_totals.epochs_committed << ' ' << c.store_totals.epochs_aborted << '\n';
  const RecoveryStats r = sys.cluster().recovery().stats();
  o << "recovery " << r.hints_recorded << ' ' << r.hints_replayed << ' '
    << r.hints_superseded << ' ' << r.hints_dropped << ' ' << r.syncs << ' '
    << r.sync_rounds << ' ' << r.shards_divergent << ' ' << r.files_transferred << ' '
    << r.bytes_transferred << ' ' << r.epochs_resolved_commit << ' '
    << r.epochs_resolved_abort << ' ' << r.rejoins << ' ' << r.sync_failures << '\n';
  const CloudSystem::Health h = sys.health();
  o << "health " << h.transport.frames << ' ' << h.transport.frame_bytes << ' '
    << h.transport.retries << ' ' << h.sends_ok << ' ' << h.sends_failed << ' '
    << h.applied_requests << ' ' << h.pending_deliveries << ' ' << h.virtual_ms
    << '\n';
  for (const NodeHealth& n : sys.cluster_health()) {
    o << "node " << n.node << ' ' << n.alive << ' ' << n.store.files << ' '
      << n.store.bytes << ' ' << n.store.stores << ' ' << n.store.fetches << ' '
      << n.store.epochs_committed << ' ' << n.store.epochs_aborted << ' '
      << n.store.epochs_staged_open << ' ' << n.pending_in << ' ' << n.replication_lag
      << ' ' << n.transport_in.frames << ' ' << n.transport_out.frames << '\n';
  }
  o << sys.status_json();
  return o.str();
}

/// Value of the exposition sample `name{labels}` (the line must exist).
int64_t sample(const std::string& text, const std::string& name, const Labels& labels) {
  const std::string head = telemetry::series_key(name, labels) + " ";
  const size_t at = text.find("\n" + head);
  EXPECT_NE(at, std::string::npos) << "no sample " << head;
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + 1 + head.size()));
}

/// Integer after `"key":` in `doc`, searching from `from`.
int64_t json_field(const std::string& doc, const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle, from);
  EXPECT_NE(at, std::string::npos) << "no field " << key;
  if (at == std::string::npos) return -1;
  return std::stoll(doc.substr(at + needle.size()));
}

TEST(InstanceMetrics, TwoSystemsInOneProcessAreIsolated) {
  auto grp = Group::test_small();
  auto a = make_system(grp, "instance-a");
  auto b = make_system(grp, "instance-b");
  ASSERT_NE(a->instance(), b->instance());
  enroll(*a);
  upload(*a, "fa");
  (void)a->download_report("alice", "fa");
  const std::string a_before = describe(*a);

  enroll(*b);
  for (const char* f : {"f1", "f2", "f3"}) upload(*b, f);
  (void)b->download_report("alice", "f1");
  (void)b->revoke_attribute("Med", "bob", "Doctor");
  b->cluster().kill_node("node:2");
  upload(*b, "f4");
  b->cluster().restart_node("node:2");
  (void)b->flush_pending();
  (void)b->cluster().recovery().sync_all();
  EXPECT_EQ(describe(*a), a_before);

  const std::string a_label = "instance=\"" + a->instance() + "\"";
  const std::string b_label = "instance=\"" + b->instance() + "\"";
  {
    const telemetry::Snapshot snap = a->telemetry_snapshot();
    EXPECT_EQ(snap.gauge("maabe_cluster_nodes_alive", {{"instance", a->instance()}}), 3);
    EXPECT_EQ(snap.gauge("maabe_cluster_nodes_alive", {{"instance", b->instance()}}), 3);
    EXPECT_GE(snap.gauge("maabe_cluster_nodes_alive"), 6);  // the family total
    EXPECT_NE(snap.prometheus_text().find(b_label), std::string::npos);
  }

  b.reset();
  const std::string text = a->telemetry_snapshot().prometheus_text();
  EXPECT_EQ(text.find(b_label), std::string::npos) << "retired series still exported";
  EXPECT_NE(text.find(a_label), std::string::npos);
  EXPECT_EQ(describe(*a), a_before);
}

// ROADMAP item 4 acceptance: every field status_json() shares with the
// exposition equals this instance's labelled sample.
TEST(InstanceMetrics, StatusJsonMatchesPrometheusText) {
  auto grp = Group::test_small();
  auto sys = make_system(grp, "status-vs-text");
  enroll(*sys);
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys->transport());
  loopback.faults().fail_next("owner:hosp", sys->cluster().route_for("f1"), 1);
  for (const char* f : {"f1", "f2", "f3", "f4"}) upload(*sys, f);
  (void)sys->download_report("alice", "f1");
  (void)sys->revoke_attribute("Med", "bob", "Doctor");
  sys->cluster().kill_node("node:1");
  upload(*sys, "f5");
  sys->cluster().restart_node("node:1");
  (void)sys->download_report("alice", "f5");
  sys->cluster().kill_node("node:2");

  const std::string doc = sys->status_json();
  const std::string text = sys->telemetry_snapshot().prometheus_text();
  const Labels l{{"instance", sys->instance()}};
  EXPECT_EQ(json_field(doc, "alive"), sample(text, "maabe_cluster_nodes_alive", l));
  EXPECT_EQ(json_field(doc, "alive"), 2);
  EXPECT_EQ(json_field(doc, "replication_lag"),
            sample(text, "maabe_cluster_replication_lag", l));
  EXPECT_EQ(json_field(doc, "pending_deliveries"),
            sample(text, "maabe_system_pending_deliveries", l));
  const size_t link = doc.find("\"link\":{");
  ASSERT_NE(link, std::string::npos);
  for (const char* f : {"sends_ok", "sends_failed", "retries", "parked_rejected"}) {
    EXPECT_EQ(json_field(doc, f, link),
              sample(text, "maabe_transport_" + std::string(f) + "_total", l))
        << f;
  }
  EXPECT_GT(json_field(doc, "sends_ok", link), 0);
  EXPECT_GE(json_field(doc, "retries", link), 1);

  int64_t committed = 0;
  for (const std::string& node : sys->cluster().node_names()) {
    const size_t at = doc.find("\"node\":\"" + node + "\"");
    ASSERT_NE(at, std::string::npos) << node;
    const Labels nl{{"instance", sys->instance()}, {"node", node}};
    EXPECT_EQ(json_field(doc, "files", at), sample(text, "maabe_system_server_files", nl));
    EXPECT_EQ(json_field(doc, "bytes", at), sample(text, "maabe_system_server_bytes", nl));
    EXPECT_EQ(json_field(doc, "epochs_committed", at),
              sample(text, "maabe_server_epochs_committed_total", nl));
    EXPECT_EQ(json_field(doc, "epochs_aborted", at),
              sample(text, "maabe_server_epochs_aborted_total", nl));
    EXPECT_EQ(json_field(doc, "epochs_staged_open", at),
              sample(text, "maabe_server_epochs_staged_open", nl));
    // And the structured per-node view reads the same series.
    const NodeHealth h = sys->health(node);
    EXPECT_EQ(static_cast<uint64_t>(json_field(doc, "files", at)), h.store.files);
    EXPECT_EQ(static_cast<uint64_t>(json_field(doc, "epochs_committed", at)),
              h.store.epochs_committed);
    committed += json_field(doc, "epochs_committed", at);
  }
  EXPECT_GT(committed, 0);
}

// One record per event: under a seeded plan that injects every fault
// kind, the meter's rows, the FaultPlan, each node's ServerStats and each
// consumer's cache getters all agree with the labelled series, and a
// second system's traffic moves none of them.
TEST(InstanceMetrics, EveryLedgerAgreesWithItsSeriesUnderFaults) {
  auto grp = Group::test_small();
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.deadline_ms = 1u << 20;
  CloudSystem a(grp, "ledger-agreement", std::make_unique<LoopbackTransport>(FaultPlan(11)),
                retry, cfg);
  enroll(a);
  auto& loopback = dynamic_cast<LoopbackTransport&>(a.transport());
  FaultSpec chaos;
  chaos.drop = chaos.duplicate = chaos.corrupt = chaos.ack_loss = 0.08;
  chaos.delay = 0.1;
  loopback.faults().set_default(chaos);
  loopback.faults().fail_next("owner:hosp", a.cluster().route_for("f1"), 1);
  const auto tolerate = [](auto op) {
    try {
      op();
    } catch (const TransportError&) {
    }
  };
  for (const char* f : {"f1", "f2", "f3", "f4"}) tolerate([&] { upload(a, f); });
  for (int i = 0; i < 3; ++i) {
    for (const char* f : {"f1", "f2", "f3", "f4"})
      tolerate([&] { (void)a.download_report("alice", f); });
  }
  tolerate([&] { (void)a.revoke_attribute("Med", "bob", "Doctor"); });
  loopback.faults().set_default(FaultSpec());
  for (int i = 0; i < 10 && a.flush_pending() > 0; ++i) {
  }
  ASSERT_EQ(a.health().pending_deliveries, 0u);
  for (const char* f : {"f1", "f2"}) (void)a.download_report("alice", f);

  const FaultPlan::Injected& injected = loopback.faults().injected();
  ASSERT_GT(injected.drops, 0u);
  ASSERT_GT(injected.duplicates, 0u);
  ASSERT_GT(injected.corruptions, 0u);
  ASSERT_GT(injected.ack_losses, 0u);
  ASSERT_GT(injected.delays, 0u);
  ASSERT_GT(injected.script_failures, 0u);

  ChannelStats rows;
  for (const auto& [channel, row] : a.meter().entries()) rows += row;
  telemetry::Snapshot snap = a.telemetry_snapshot();
  const Labels l{{"instance", a.instance()}};
  const auto series = [&](const char* name) {
    return snap.counter("maabe_transport_" + std::string(name) + "_total", l);
  };
  EXPECT_EQ(rows.frames, series("frames"));
  EXPECT_EQ(rows.frame_bytes, series("frame_bytes"));
  EXPECT_EQ(rows.deliveries, series("deliveries"));
  EXPECT_EQ(rows.faults(), series("faults"));
  EXPECT_EQ(rows.retries, series("retries"));
  EXPECT_EQ(rows.redeliveries, series("redeliveries"));
  EXPECT_EQ(rows.faults(), injected.total());
  EXPECT_GT(rows.redeliveries, 0u);

  for (const std::string& node : a.cluster().node_names()) {
    const ServerStats st = a.cluster().node_store(node).stats();
    const Labels nl{{"instance", a.instance()}, {"node", node}};
    EXPECT_EQ(st.stores, snap.counter("maabe_server_stores_total", nl)) << node;
    EXPECT_EQ(st.fetches, snap.counter("maabe_server_fetches_total", nl)) << node;
    EXPECT_EQ(st.reencrypted_slots, snap.counter("maabe_server_reencrypted_slots_total", nl))
        << node;
  }
  EXPECT_GT(a.cluster().stats().store_totals.reencrypted_slots, 0u);

  std::map<std::string, std::pair<uint64_t, uint64_t>> cache;
  for (const char* uid : {"alice", "bob"}) {
    const Consumer& c = a.user(uid);
    const Labels ul{{"instance", a.instance()}, {"user", uid}};
    EXPECT_EQ(c.decrypt_cache_hits(), snap.counter("maabe_decrypt_cache_hits_total", ul));
    EXPECT_EQ(c.decrypt_cache_misses(), snap.counter("maabe_decrypt_cache_misses_total", ul));
    cache[uid] = {c.decrypt_cache_hits(), c.decrypt_cache_misses()};
  }
  EXPECT_GT(cache["alice"].first, 0u);
  EXPECT_GT(cache["alice"].second, 0u);

  // Same user names, another instance: A's counts stay where they were.
  auto b = make_system(grp, "ledger-agreement-b");
  enroll(*b);
  upload(*b, "f1");
  for (int i = 0; i < 2; ++i) {
    (void)b->download_report("alice", "f1");
    (void)b->download_report("bob", "f1");
  }
  EXPECT_GT(b->user("alice").decrypt_cache_hits(), 0u);
  snap = a.telemetry_snapshot();
  for (const char* uid : {"alice", "bob"}) {
    const Labels ul{{"instance", a.instance()}, {"user", uid}};
    EXPECT_EQ(a.user(uid).decrypt_cache_hits(), cache[uid].first) << uid;
    EXPECT_EQ(a.user(uid).decrypt_cache_misses(), cache[uid].second) << uid;
    EXPECT_EQ(snap.counter("maabe_decrypt_cache_hits_total", ul), cache[uid].first) << uid;
  }
}

/// The series names of kSeriesNames in bench/e2e/ledger.cpp, read from
/// the source so the guard cannot drift from the benchmark.
std::vector<std::string> ledger_series_names() {
  std::ifstream in(MAABE_LEDGER_SOURCE);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  const size_t begin = src.find("kSeriesNames[kSeriesCount] = {");
  const size_t end = src.find("};", begin);
  std::vector<std::string> names;
  if (begin == std::string::npos || end == std::string::npos) return names;
  const std::string body = src.substr(begin, end - begin);
  const std::regex quoted("\"([a-z0-9_]+)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), quoted), stop; it != stop; ++it)
    names.push_back((*it)[1]);
  return names;
}

// The end-to-end benchmark's ledger interns these families by bare
// name; a family the labelled series stopped rolling into would
// silently zero per-layer metrics such as transport.frames_per_download
// and cluster.epoch_abort_ratio.
TEST(InstanceMetrics, EveryLedgerSeriesMovesUnderAThreeNodeScenario) {
  const std::vector<std::string> names = ledger_series_names();
  ASSERT_EQ(names.size(), 11u) << "could not read kSeriesNames from " << MAABE_LEDGER_SOURCE;
  std::vector<telemetry::Counter*> handles;
  std::vector<uint64_t> before;
  for (const std::string& name : names) {
    handles.push_back(&MetricsRegistry::global().counter(name));
    before.push_back(handles.back()->value());
  }

  auto grp = Group::test_small();
  auto sys = make_system(grp, "ledger-guard");
  enroll(*sys);
  auto& loopback = dynamic_cast<LoopbackTransport&>(sys->transport());
  loopback.faults().fail_next("owner:hosp", sys->cluster().route_for("f1"), 1);  // a retry
  for (const char* f : {"f1", "f2", "f3"}) upload(*sys, f);
  (void)sys->download_report("alice", "f1");  // decrypt-cache miss
  (void)sys->download_report("alice", "f1");  // decrypt-cache hit
  sys->user("bob").set_decrypt_cache_capacity(0);
  (void)sys->download_report("bob", "f2");  // uncached

  // Fail the coordinator's stage once: the 2PC aborts, and the epoch
  // message's retry runs a second 2PC that commits.
  const std::string coord = sys->cluster().coordinator();
  ASSERT_FALSE(sys->cluster().node_store(coord).file_ids().empty());
  auto fail_once = std::make_shared<std::atomic<bool>>(true);
  sys->cluster().node_store(coord).set_reencrypt_fault_hook([fail_once](const std::string&) {
    if (fail_once->exchange(false))
      throw TransportError(TransportError::Kind::kLost, "injected stage failure");
  });
  EXPECT_GT(sys->revoke_attribute("Med", "bob", "Doctor"), 0u);
  for (int i = 0; i < 10 && sys->flush_pending() > 0; ++i) {
  }
  EXPECT_EQ(sys->health().pending_deliveries, 0u);

  // With one of its two replicas down a read misses its quorum of 2.
  sys->cluster().kill_node(sys->cluster().replicas_for("f3")[1]);
  EXPECT_THROW((void)sys->download_report("alice", "f3"), TransportError);

  for (size_t i = 0; i < names.size(); ++i)
    EXPECT_GT(handles[i]->value(), before[i]) << names[i] << " did not move";
}

}  // namespace
}  // namespace maabe::cloud
