// Revocation cost benchmark + the paper's Eq. (2) ablation.
//
// Section V-C claims the server only re-encrypts the ciphertext
// components touched by the revoked authority (C and the C_i rows
// labeled by it), which "greatly improves the computation efficiency of
// attribute revocation". This bench quantifies that: for a ciphertext
// spanning n_A authorities, partial re-encryption does 1 pairing +
// n_k point additions, versus a full re-encrypt-from-scratch (decrypt
// prevention means the server CANNOT do that; the ablation instead
// re-runs owner-side encryption) costing l+1 exponentiations + shares.
//
// Also times the other protocol steps: ReKey (AA), key update (user),
// UpdateInfo generation (owner; the batch form, with the paper's
// PK-difference formula as a reference row).
#include <benchmark/benchmark.h>

#include <chrono>

#include "abe/serial.h"
#include "bench_common.h"
#include "bench_json.h"
#include "cloud/cluster.h"
#include "cloud/meter.h"
#include "cloud/server.h"
#include "cloud/transport.h"

namespace maabe::bench {
namespace {

constexpr int kAttrsPerAuthority = 5;

struct RevocationFixture {
  const OurWorld* w;
  abe::AuthorityVersionKey old_vk, new_vk;
  abe::UpdateKey uk;
  std::map<std::string, abe::PublicAttributeKey> new_attr_pks;
  abe::UpdateInfo ui;

  static const RevocationFixture& get(int n_auth) {
    static std::map<int, std::unique_ptr<RevocationFixture>> cache;
    auto& slot = cache[n_auth];
    if (!slot) {
      slot = std::make_unique<RevocationFixture>();
      RevocationFixture& f = *slot;
      f.w = &OurWorld::get(n_auth, kAttrsPerAuthority);
      crypto::Drbg rng(std::string_view("revocation-bench"));
      f.old_vk = f.w->vks.at(aid_of(0));
      f.new_vk = abe::aa_rekey(*f.w->grp, f.old_vk, rng).new_vk;
      f.uk = abe::aa_make_update_key(*f.w->grp, f.old_vk, f.new_vk, f.w->sk_o);
      f.new_attr_pks = f.w->attr_pks;
      for (auto& [h, pk] : f.new_attr_pks) {
        if (pk.attr.aid == aid_of(0))
          pk = abe::apply_update_to_attribute_pk(*f.w->grp, pk, f.uk);
      }
      f.ui = abe::owner_update_info(*f.w->grp, f.w->mk, f.w->enc.record, f.w->enc.ct,
                                    f.w->attr_pks, f.new_attr_pks, aid_of(0));
    }
    return *slot;
  }
};

void BM_ReKey_AA(benchmark::State& state) {
  const RevocationFixture& f = RevocationFixture::get(static_cast<int>(state.range(0)));
  crypto::Drbg rng(std::string_view("rk"));
  for (auto _ : state) {
    const auto new_vk = abe::aa_rekey(*f.w->grp, f.old_vk, rng).new_vk;
    benchmark::DoNotOptimize(abe::aa_make_update_key(*f.w->grp, f.old_vk, new_vk, f.w->sk_o));
  }
}

void BM_KeyUpdate_User(benchmark::State& state) {
  const RevocationFixture& f = RevocationFixture::get(static_cast<int>(state.range(0)));
  const abe::UserSecretKey& sk = f.w->user_keys.at(aid_of(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(abe::apply_update_to_secret_key(*f.w->grp, sk, f.uk));
  }
}

// The owner's pass over one record: one engine batch on the base UK1.
void BM_UpdateInfo_Owner(benchmark::State& state) {
  const RevocationFixture& f = RevocationFixture::get(static_cast<int>(state.range(0)));
  const std::vector<const abe::EncryptionRecord*> records{&f.w->enc.record};
  for (auto _ : state) {
    benchmark::DoNotOptimize(abe::owner_update_infos(*f.w->grp, f.w->mk, records, f.uk));
  }
}

// Reference row: the paper's PK-difference formula through the checked
// adapter, one variable-base multiply per row.
void BM_UpdateInfo_Owner_Reference(benchmark::State& state) {
  const RevocationFixture& f = RevocationFixture::get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(abe::owner_update_info(*f.w->grp, f.w->mk, f.w->enc.record,
                                                    f.w->enc.ct, f.w->attr_pks,
                                                    f.new_attr_pks, aid_of(0)));
  }
}

// The paper's proposal: server-side partial re-encryption (Eq. 2).
void BM_ReEncrypt_Partial_Server(benchmark::State& state) {
  const RevocationFixture& f = RevocationFixture::get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    abe::Ciphertext ct = f.w->enc.ct;  // copy, then re-encrypt in place
    abe::reencrypt(*f.w->grp, &ct, f.uk, f.ui);
    benchmark::DoNotOptimize(ct);
  }
  state.counters["authorities"] = static_cast<double>(state.range(0));
}

// Ablation: full re-encryption from scratch (what a scheme without
// proxy re-encryption would force the OWNER to redo and re-upload).
void BM_ReEncrypt_Full_Owner(benchmark::State& state) {
  const RevocationFixture& f = RevocationFixture::get(static_cast<int>(state.range(0)));
  crypto::Drbg rng(std::string_view("full-reenc"));
  std::map<std::string, abe::AuthorityPublicKey> new_apks = f.w->apks;
  new_apks.at(aid_of(0)) =
      abe::apply_update_to_authority_pk(*f.w->grp, new_apks.at(aid_of(0)), f.uk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(abe::encrypt(*f.w->grp, f.w->mk, "re", f.w->message,
                                          f.w->policy, new_apks, f.new_attr_pks, rng));
  }
  state.counters["authorities"] = static_cast<double>(state.range(0));
}

// A whole server-side revocation epoch over a populated sharded store:
// stage every affected slot (CryptoEngine fan-out), then commit under
// the shard write locks. Times the epoch only — the store is rebuilt at
// version 1 between iterations (an epoch is not idempotent: the strict
// version checks reject a second application).
void BM_ReEncrypt_Epoch_Server(benchmark::State& state) {
  const int n_files = static_cast<int>(state.range(0));
  const RevocationFixture& f = RevocationFixture::get(2);
  const pairing::Group& grp = *f.w->grp;
  crypto::Drbg rng(std::string_view("epoch-bench"));

  std::vector<cloud::StoredFile> files;
  std::vector<abe::UpdateInfo> infos;
  for (int i = 0; i < n_files; ++i) {
    const std::string file_id = "f" + std::to_string(i);
    const std::string ct_id = cloud::slot_ct_id(file_id, "key");
    abe::EncryptionResult enc = abe::encrypt(grp, f.w->mk, ct_id, f.w->message,
                                             f.w->policy, f.w->apks, f.w->attr_pks, rng);
    infos.push_back(abe::owner_update_info(grp, f.w->mk, enc.record, enc.ct,
                                           f.w->attr_pks, f.new_attr_pks, aid_of(0)));
    files.push_back({file_id, f.w->mk.owner_id, {{"key", std::move(enc.ct), Bytes{}}}});
  }

  uint64_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cloud::CloudServer server(f.w->grp);
    for (const cloud::StoredFile& file : files) server.store(file);
    state.ResumeTiming();
    slots += server.reencrypt(f.uk, infos);
  }
  state.counters["files"] = static_cast<double>(n_files);
  state.counters["slots_per_epoch"] =
      static_cast<double>(slots) / static_cast<double>(state.iterations());
}

// The same epoch, but the {UK, UpdateInfo*} message reaches the server
// the way CloudSystem now sends it: serialized, framed, checksummed and
// delivered over a (fault-free) loopback transport, then deserialized
// server-side. The delta against BM_ReEncrypt_Epoch_Server is the full
// cost of byte-level transport on the revocation hot path; the counters
// report the wire framing overhead.
void BM_ReEncrypt_Epoch_Transport(benchmark::State& state) {
  const int n_files = static_cast<int>(state.range(0));
  const RevocationFixture& f = RevocationFixture::get(2);
  const pairing::Group& grp = *f.w->grp;
  crypto::Drbg rng(std::string_view("epoch-bench"));

  std::vector<cloud::StoredFile> files;
  std::vector<abe::UpdateInfo> infos;
  for (int i = 0; i < n_files; ++i) {
    const std::string file_id = "f" + std::to_string(i);
    const std::string ct_id = cloud::slot_ct_id(file_id, "key");
    abe::EncryptionResult enc = abe::encrypt(grp, f.w->mk, ct_id, f.w->message,
                                             f.w->policy, f.w->apks, f.w->attr_pks, rng);
    infos.push_back(abe::owner_update_info(grp, f.w->mk, enc.record, enc.ct,
                                           f.w->attr_pks, f.new_attr_pks, aid_of(0)));
    files.push_back({file_id, f.w->mk.owner_id, {{"key", std::move(enc.ct), Bytes{}}}});
  }

  cloud::LoopbackTransport transport;
  cloud::ReliableLink link(transport);
  uint64_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cloud::CloudServer server(f.w->grp);
    for (const cloud::StoredFile& file : files) server.store(file);
    state.ResumeTiming();
    // Owner side: one epoch message, serialized once.
    Writer w;
    w.var_bytes(abe::serialize(grp, f.uk));
    w.u32(static_cast<uint32_t>(infos.size()));
    for (const abe::UpdateInfo& ui : infos) w.var_bytes(abe::serialize(grp, ui));
    // Wire + server side: frame, checksum, verify, parse, re-encrypt.
    link.send("owner:owner", "server", w.bytes(), [&](ByteView payload) {
      Reader r(payload);
      const abe::UpdateKey uk =
          abe::deserialize_update_key(grp, r.var_bytes(), abe::UkCheck::kCiphertextPath);
      std::vector<abe::UpdateInfo> delivered;
      const uint32_t n = r.u32();
      delivered.reserve(n);
      for (uint32_t i = 0; i < n; ++i)
        delivered.push_back(abe::deserialize_update_info(grp, r.var_bytes()));
      r.expect_done();
      slots += server.reencrypt(uk, delivered);
    });
  }
  const cloud::ChannelStats stats = transport.meter().stats("owner:owner", "server");
  state.counters["files"] = static_cast<double>(n_files);
  state.counters["slots_per_epoch"] =
      static_cast<double>(slots) / static_cast<double>(state.iterations());
  state.counters["payload_B_per_epoch"] =
      static_cast<double>(stats.payload_bytes) / static_cast<double>(state.iterations());
  state.counters["frame_overhead_pct"] =
      stats.payload_bytes == 0
          ? 0.0
          : 100.0 * static_cast<double>(stats.frame_bytes - stats.payload_bytes) /
                static_cast<double>(stats.payload_bytes);
}

// The transported epoch against a 3-node / R=2 cluster: every file is
// written through the consistent-hash ring (two replica copies) and the
// epoch runs as cluster-wide 2PC — stage on every node over the wire,
// commit everywhere once all ack. The delta against
// BM_ReEncrypt_Epoch_Transport prices replication + 2PC: roughly R x
// the re-encryption work plus the stage/commit round trips. bench-smoke
// keeps the single-pass version of this ratio within 2.5x (the
// cluster_epoch_efficiency floor in BENCH_revocation.json).
void BM_ReEncrypt_Epoch_Cluster(benchmark::State& state) {
  const int n_files = static_cast<int>(state.range(0));
  const RevocationFixture& f = RevocationFixture::get(2);
  const pairing::Group& grp = *f.w->grp;
  crypto::Drbg rng(std::string_view("epoch-bench"));

  std::vector<std::string> ids;
  std::vector<Bytes> wires;
  std::vector<abe::UpdateInfo> infos;
  for (int i = 0; i < n_files; ++i) {
    const std::string file_id = "f" + std::to_string(i);
    const std::string ct_id = cloud::slot_ct_id(file_id, "key");
    abe::EncryptionResult enc = abe::encrypt(grp, f.w->mk, ct_id, f.w->message,
                                             f.w->policy, f.w->apks, f.w->attr_pks, rng);
    infos.push_back(abe::owner_update_info(grp, f.w->mk, enc.record, enc.ct,
                                           f.w->attr_pks, f.new_attr_pks, aid_of(0)));
    const cloud::StoredFile file{file_id, f.w->mk.owner_id,
                                 {{"key", std::move(enc.ct), Bytes{}}}};
    ids.push_back(file_id);
    wires.push_back(cloud::serialize(grp, file));
  }

  cloud::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication = 2;
  uint64_t slots = 0, repl_sent = 0, commits = 0, lag = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cloud::LoopbackTransport transport;
    cloud::ReliableLink link(transport);
    cloud::DurableLink durable(link);
    cloud::Cluster cluster(f.w->grp, cfg, link, durable);
    for (int i = 0; i < n_files; ++i) {
      const std::string target = cluster.route_for(ids[i]);
      link.send("owner:owner", target, wires[i],
                [&](ByteView payload) { cluster.handle_store(target, payload); });
    }
    state.ResumeTiming();
    Writer w;
    w.var_bytes(abe::serialize(grp, f.uk));
    w.u32(static_cast<uint32_t>(infos.size()));
    for (const abe::UpdateInfo& ui : infos) w.var_bytes(abe::serialize(grp, ui));
    const std::string coord = cluster.coordinator();
    link.send("owner:owner", coord, w.bytes(),
              [&](ByteView payload) { cluster.handle_epoch(coord, payload); });
    state.PauseTiming();
    const cloud::ClusterStats cs = cluster.stats();
    slots += cluster.total_reencrypted_slots();
    repl_sent += cs.replication_ops_sent;
    commits += cs.epoch_commits;
    lag += durable.pending_count();
    state.ResumeTiming();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["files"] = static_cast<double>(n_files);
  state.counters["nodes"] = static_cast<double>(cfg.nodes);
  state.counters["replication"] = static_cast<double>(cfg.replication);
  state.counters["slots_per_epoch"] = static_cast<double>(slots) / iters;
  state.counters["replication_ops_per_run"] = static_cast<double>(repl_sent) / iters;
  state.counters["epoch_commits_per_run"] = static_cast<double>(commits) / iters;
  state.counters["replication_lag_after_epoch"] = static_cast<double>(lag) / iters;
}

void sweep(benchmark::internal::Benchmark* b) {
  for (int n : {2, 5, 10}) b->Arg(n);
  b->Unit(benchmark::kMillisecond)->MinTime(0.05);
}

BENCHMARK(BM_ReKey_AA)->Apply(sweep);
BENCHMARK(BM_KeyUpdate_User)->Apply(sweep);
BENCHMARK(BM_UpdateInfo_Owner)->Apply(sweep);
BENCHMARK(BM_UpdateInfo_Owner_Reference)->Apply(sweep);
BENCHMARK(BM_ReEncrypt_Partial_Server)->Apply(sweep);
BENCHMARK(BM_ReEncrypt_Full_Owner)->Apply(sweep);
BENCHMARK(BM_ReEncrypt_Epoch_Server)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_ReEncrypt_Epoch_Transport)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(BM_ReEncrypt_Epoch_Cluster)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

// One instrumented pass over the whole protocol, phase by phase:
// BENCH_revocation.json gets a per-phase wall-ms + engine-op breakdown
// (OpMeter deltas) plus the registry snapshot, so a sweep diff shows
// *where* a regression landed, not just that the epoch got slower.
void emit_phase_breakdown() {
  const RevocationFixture& f = RevocationFixture::get(2);
  const pairing::Group& grp = *f.w->grp;
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(grp);
  crypto::Drbg rng(std::string_view("phase-breakdown"));
  cloud::OpMeter meter;
  Json phase_wall_ms;
  const auto timed = [&](const char* phase, const auto& body) {
    cloud::OpMeter::Scope scope(meter, eng, phase);
    const auto start = std::chrono::steady_clock::now();
    body();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    phase_wall_ms.put(phase, ms);
    return ms;
  };

  timed("rekey_aa", [&] {
    const auto new_vk = abe::aa_rekey(grp, f.old_vk, rng).new_vk;
    benchmark::DoNotOptimize(abe::aa_make_update_key(grp, f.old_vk, new_vk, f.w->sk_o));
  });
  timed("key_update_user", [&] {
    benchmark::DoNotOptimize(apply_update_to_secret_key(
        grp, f.w->user_keys.at(aid_of(0)), f.uk));
  });
  timed("update_info_owner", [&] {
    benchmark::DoNotOptimize(
        abe::owner_update_infos(grp, f.w->mk, {&f.w->enc.record}, f.uk));
  });
  timed("update_info_owner_reference", [&] {
    benchmark::DoNotOptimize(abe::owner_update_info(grp, f.w->mk, f.w->enc.record,
                                                    f.w->enc.ct, f.w->attr_pks,
                                                    f.new_attr_pks, aid_of(0)));
  });

  // Transported epoch over 4 files, the full serialized round trip.
  constexpr int kFiles = 4;
  std::vector<cloud::StoredFile> files;
  std::vector<abe::UpdateInfo> infos;
  for (int i = 0; i < kFiles; ++i) {
    const std::string file_id = "f" + std::to_string(i);
    const std::string ct_id = cloud::slot_ct_id(file_id, "key");
    abe::EncryptionResult enc = abe::encrypt(grp, f.w->mk, ct_id, f.w->message,
                                             f.w->policy, f.w->apks, f.w->attr_pks, rng);
    infos.push_back(abe::owner_update_info(grp, f.w->mk, enc.record, enc.ct,
                                           f.w->attr_pks, f.new_attr_pks, aid_of(0)));
    files.push_back({file_id, f.w->mk.owner_id, {{"key", std::move(enc.ct), Bytes{}}}});
  }
  // The epoch message, serialized once and replayed per measurement rep.
  Bytes epoch_msg;
  {
    Writer w;
    w.var_bytes(abe::serialize(grp, f.uk));
    w.u32(static_cast<uint32_t>(infos.size()));
    for (const abe::UpdateInfo& ui : infos) w.var_bytes(abe::serialize(grp, ui));
    epoch_msg = w.take();
  }

  // The same files and epoch against a 3-node / R=2 cluster: ring
  // writes put two replica copies of each file on the wire, the epoch
  // runs as 2PC. cluster_epoch_efficiency = transported / cluster wall
  // time; bench-smoke floors it at 0.4, i.e. the replicated epoch must
  // stay within 2.5x of the single-node transported epoch.
  cloud::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.replication = 2;
  std::vector<Bytes> store_wires;
  store_wires.reserve(files.size());
  for (const cloud::StoredFile& file : files)
    store_wires.push_back(cloud::serialize(grp, file));

  uint64_t slots = 0;
  cloud::ChannelStats stats;
  Json cluster_json;
  // One transported single-node epoch; returns its wall ms.
  const auto transported_epoch = [&] {
    cloud::OpMeter::Scope scope(meter, eng, "epoch_transport");
    cloud::LoopbackTransport transport;
    cloud::ReliableLink link(transport);
    cloud::CloudServer server(f.w->grp);
    for (const cloud::StoredFile& file : files) server.store(file);
    const auto start = std::chrono::steady_clock::now();
    link.send("owner:owner", "server", epoch_msg, [&](ByteView payload) {
      Reader r(payload);
      const abe::UpdateKey uk = abe::deserialize_update_key(
          grp, r.var_bytes(), abe::UkCheck::kCiphertextPath);
      std::vector<abe::UpdateInfo> delivered;
      const uint32_t n = r.u32();
      delivered.reserve(n);
      for (uint32_t i = 0; i < n; ++i)
        delivered.push_back(abe::deserialize_update_info(grp, r.var_bytes()));
      r.expect_done();
      slots = server.reencrypt(uk, delivered);
    });
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    stats = transport.meter().stats("owner:owner", "server");
    return ms;
  };
  // One cluster-wide 2PC epoch; returns its wall ms.
  const auto cluster_epoch = [&] {
    cloud::OpMeter::Scope scope(meter, eng, "epoch_cluster");
    cloud::LoopbackTransport cluster_transport;
    cloud::ReliableLink cluster_link(cluster_transport);
    cloud::DurableLink cluster_durable(cluster_link);
    cloud::Cluster cluster(f.w->grp, ccfg, cluster_link, cluster_durable);
    for (size_t i = 0; i < files.size(); ++i) {
      const std::string target = cluster.route_for(files[i].file_id);
      cluster_link.send("owner:owner", target, store_wires[i],
                        [&](ByteView payload) { cluster.handle_store(target, payload); });
    }
    const auto start = std::chrono::steady_clock::now();
    const std::string coord = cluster.coordinator();
    cluster_link.send("owner:owner", coord, epoch_msg, [&](ByteView payload) {
      cluster.handle_epoch(coord, payload);
    });
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const cloud::ClusterStats cstats = cluster.stats();
    cluster_json = Json();
    cluster_json.put("nodes", static_cast<uint64_t>(cstats.nodes))
        .put("alive", static_cast<uint64_t>(cstats.alive))
        .put("replication", static_cast<uint64_t>(cstats.replication))
        .put("replication_ops_sent", cstats.replication_ops_sent)
        .put("replication_ops_applied", cstats.replication_ops_applied)
        .put("replication_lag_after_epoch",
             static_cast<uint64_t>(cluster_durable.pending_count()))
        .put("epoch_commits", cstats.epoch_commits)
        .put("epoch_aborts", cstats.epoch_aborts)
        .put("epoch_slots", cluster.total_reencrypted_slots());
    return ms;
  };

  // An epoch is not idempotent, so each pass rebuilds both stores at
  // version 1. The two epochs run interleaved, one of each per pass,
  // and each side keeps its minimum over kEpochPasses after one warmup
  // pass: a burst of host load then slows both sides of the guarded
  // ratio alike instead of whichever side it happened to overlap, and
  // one clean pass per side is enough. The engine runs on the calling
  // thread (main pins it): a pool join waits out any preempted worker,
  // which on a loaded host inflates the cluster's many small batches far
  // more than the single-node epoch and says nothing about replication
  // or 2PC.
  constexpr int kEpochPasses = 9;
  double transported_ms = 0.0;
  double cluster_ms = 0.0;
  for (int pass = -1; pass < kEpochPasses; ++pass) {
    const double t_ms = transported_epoch();
    const double c_ms = cluster_epoch();
    if (pass < 0) continue;  // warmup
    transported_ms = pass == 0 ? t_ms : std::min(transported_ms, t_ms);
    cluster_ms = pass == 0 ? c_ms : std::min(cluster_ms, c_ms);
  }
  phase_wall_ms.put("epoch_transport", transported_ms);
  phase_wall_ms.put("epoch_cluster", cluster_ms);

  Json wire;
  wire.put("payload_bytes", stats.payload_bytes)
      .put("frame_bytes", stats.frame_bytes)
      .put("frames", stats.frames)
      .put("bytes_delivered", stats.bytes_delivered)
      .put("bytes_accepted", stats.bytes_accepted);
  Json root;
  root.put("bench", "revocation")
      .put("group", bench_group_label())
      .put("attrs_per_authority", kAttrsPerAuthority)
      .put("epoch_files", kFiles)
      .put("epoch_slots", slots);
  // Guarded ratio: only emitted when both epoch walls were actually
  // measured. A defaulted value here would let bench_guard floor-check
  // a number no run produced; absent, the guard exits 2 and the smoke
  // fails loudly instead.
  if (transported_ms > 0.0 && cluster_ms > 0.0)
    root.put("cluster_epoch_efficiency", transported_ms / cluster_ms);
  root.put("phase_wall_ms", phase_wall_ms)
      .put("phases", phases_json(meter.phases()))
      .put("epoch_wire", wire)
      .put("cluster", cluster_json)
      .put("telemetry", snapshot_json(telemetry::MetricsRegistry::global().collect()));
  write_bench_json("revocation", root);
}

}  // namespace
}  // namespace maabe::bench

int main(int argc, char** argv) {
  // One engine thread, as bench/e2e runs: google-benchmark's CPU column
  // counts only the calling thread, so the engine-backed rows are
  // comparable with the single-threaded _Reference rows beside them.
  maabe::engine::CryptoEngine::set_default_threads(1);
  std::printf("Revocation cost + partial-vs-full re-encryption ablation (Eq. 2)\n");
  std::printf("group: %s, %d attrs/authority, revocation at one authority\n",
              maabe::bench::bench_group_label().c_str(),
              maabe::bench::kAttrsPerAuthority);
  std::printf("engine threads: %d\n\n", maabe::engine::CryptoEngine::default_threads());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  maabe::bench::emit_phase_breakdown();
  return 0;
}
