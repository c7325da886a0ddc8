// maabe-cli — a persistent multi-authority access-control deployment on
// the local filesystem.
//
// Walkthrough:
//   maabe-cli --home demo init --test-curve
//   maabe-cli --home demo add-authority MedOrg Doctor Nurse
//   maabe-cli --home demo add-authority TrialAdmin Researcher
//   maabe-cli --home demo add-owner hospital
//   maabe-cli --home demo add-user alice
//   maabe-cli --home demo grant MedOrg alice Doctor
//   maabe-cli --home demo grant TrialAdmin alice Researcher
//   maabe-cli --home demo issue-key MedOrg alice hospital
//   maabe-cli --home demo issue-key TrialAdmin alice hospital
//   echo "secret note" > note.txt
//   maabe-cli --home demo encrypt hospital note1 \
//       "Doctor@MedOrg AND Researcher@TrialAdmin" note.txt
//   maabe-cli --home demo decrypt alice note1 out.txt
//   maabe-cli --home demo revoke MedOrg alice Doctor
//   maabe-cli --home demo decrypt alice note1 out.txt   # now denied
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "abe/scheme.h"
#include "abe/serial.h"
#include "cloud/hybrid.h"
#include "cloud/ring.h"
#include "cloud/transport.h"
#include "common/errors.h"
#include "crypto/random.h"
#include "engine/engine.h"
#include "keystore.h"
#include "lsss/parser.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::tools {
namespace {

namespace fsys = std::filesystem;

Bytes read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SchemeError("cannot read input file '" + path + "'");
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_whole_file(const std::string& path, ByteView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SchemeError("cannot write output file '" + path + "'");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Chaos-testing knobs (see README "Chaos testing"): the server data
/// path (encrypt/decrypt/revoke) runs over a byte-level loopback
/// transport with deterministic fault injection.
struct TransportConfig {
  uint64_t fault_seed = 1;
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  bool show_stats = false;
};

/// Multi-node storage placement (README "Cluster quick-start"): with
/// --nodes N > 1 stored files spread over N storage nodes via the same
/// consistent-hash ring the cluster uses, R replicas each, one shard
/// directory per node (server/node-<i>/). The flags must be repeated on
/// every command touching files — placement is derived, not persisted.
struct PlacementConfig {
  size_t nodes = 1;
  size_t replication = 1;
};

/// Telemetry export destinations (README "Telemetry"). Empty = off.
struct TelemetryConfig {
  std::string metrics_out;  ///< Prometheus text snapshot, written on exit
  std::string trace_out;    ///< JSON-lines span stream, written live
};

struct Cli {
  Keystore store;
  crypto::Drbg rng = crypto::make_system_drbg();
  cloud::LoopbackTransport transport;
  cloud::ReliableLink link{transport};
  cloud::HashRing ring;

  Cli(fsys::path home, const TransportConfig& cfg, const PlacementConfig& placement)
      : store(std::move(home)),
        transport(make_plan(cfg)),
        ring(node_names(placement), placement.replication) {}

  static cloud::FaultPlan make_plan(const TransportConfig& cfg) {
    cloud::FaultPlan plan(cfg.fault_seed);
    cloud::FaultSpec spec;
    spec.drop = cfg.drop_rate;
    spec.corrupt = cfg.corrupt_rate;
    plan.set_default(spec);
    return plan;
  }

  /// Single node keeps the legacy channel name "server"; a real cluster
  /// names its members node-0..node-(N-1).
  static std::vector<std::string> node_names(const PlacementConfig& placement) {
    if (placement.nodes <= 1) return {"server"};
    std::vector<std::string> names;
    for (size_t i = 0; i < placement.nodes; ++i)
      names.push_back("node-" + std::to_string(i));
    return names;
  }

  bool multi_node() const { return ring.nodes().size() > 1; }

  /// Keystore shard for a ring node ("" = legacy server/ layout).
  std::string shard_of(const std::string& node) const {
    return multi_node() ? node : std::string();
  }

  /// Upload leg: the serialized StoredFile travels owner -> every ring
  /// replica of the file, each keeping its own shard copy.
  void server_put(const std::string& owner_id, const std::string& file_id,
                  ByteView wire) {
    for (const std::string& node : ring.replicas_for(file_id)) {
      link.send("owner:" + owner_id, node, wire, [&](ByteView delivered) {
        store.save_server_file(shard_of(node), file_id,
                               Bytes(delivered.begin(), delivered.end()));
      });
    }
  }

  /// Download leg: the stored bytes travel from the first replica
  /// holding the file -> `to`.
  Bytes server_get(const std::string& to, const std::string& file_id) {
    Bytes wire;
    link.send(serving_node(file_id), to, server_load(file_id),
              [&](ByteView delivered) {
                wire.assign(delivered.begin(), delivered.end());
              });
    return wire;
  }

  /// First replica in preference order that holds the file; falls back
  /// to the primary so the keystore raises its usual missing-file error.
  std::string serving_node(const std::string& file_id) const {
    for (const std::string& node : ring.replicas_for(file_id)) {
      if (store.has_server_file(shard_of(node), file_id)) return node;
    }
    return ring.primary_for(file_id);
  }

  Bytes server_load(const std::string& file_id) {
    return store.load_server_file(shard_of(serving_node(file_id)), file_id);
  }

  bool server_has(const std::string& file_id) const {
    for (const std::string& node : ring.nodes()) {
      if (store.has_server_file(shard_of(node), file_id)) return true;
    }
    return false;
  }

  /// Union of all shards (a file appears once, not once per replica).
  std::vector<std::string> server_list() const {
    std::set<std::string> all;
    for (const std::string& node : ring.nodes()) {
      for (const std::string& f : store.list_server_files(shard_of(node)))
        all.insert(f);
    }
    return {all.begin(), all.end()};
  }

  void print_transport_stats() const {
    std::printf("transport stats:\n");
    for (const auto& [channel, s] : transport.meter().entries()) {
      std::printf(
          "  %s -> %s: payload %ju B, frames %ju (%ju B), deliveries %ju, "
          "drops %ju, corruptions %ju, retries %ju, redeliveries %ju\n",
          channel.first.c_str(), channel.second.c_str(),
          static_cast<uintmax_t>(s.payload_bytes), static_cast<uintmax_t>(s.frames),
          static_cast<uintmax_t>(s.frame_bytes), static_cast<uintmax_t>(s.deliveries),
          static_cast<uintmax_t>(s.drops), static_cast<uintmax_t>(s.corruptions),
          static_cast<uintmax_t>(s.retries), static_cast<uintmax_t>(s.redeliveries));
    }
    const cloud::FaultPlan::Injected& injected = transport.faults().injected();
    std::printf("  injected faults: %ju (sends ok %ju, failed %ju)\n",
                static_cast<uintmax_t>(injected.total()),
                static_cast<uintmax_t>(link.sends_ok()),
                static_cast<uintmax_t>(link.sends_failed()));
  }

  int init(const std::vector<std::string>& args) {
    const bool small = !args.empty() && args[0] == "--test-curve";
    if (store.initialized()) throw SchemeError("already initialized");
    store.init_group(small ? pairing::TypeAParams::test_small()
                           : pairing::TypeAParams::pbc_a512());
    std::printf("initialized %s (%s)\n", store.home().string().c_str(),
                small ? "192-bit test curve, INSECURE" : "512-bit type-A curve");
    return 0;
  }

  int add_authority(const std::vector<std::string>& args) {
    if (args.size() < 2) throw SchemeError("usage: add-authority <aid> <attr>...");
    const std::string& aid = args[0];
    if (store.has_authority(aid)) throw SchemeError("authority exists: " + aid);
    AuthorityState state;
    state.vk = abe::aa_setup(*store.group(), aid, rng);
    for (size_t i = 1; i < args.size(); ++i) {
      Keystore::validate_id(args[i]);
      state.universe.insert(args[i]);
    }
    store.save_authority(state);
    std::printf("authority '%s' created (version 1, %zu attributes)\n", aid.c_str(),
                state.universe.size());
    return 0;
  }

  int add_owner(const std::vector<std::string>& args) {
    if (args.size() != 1) throw SchemeError("usage: add-owner <id>");
    if (store.has_owner(args[0])) throw SchemeError("owner exists: " + args[0]);
    const abe::OwnerMasterKey mk = abe::owner_gen(*store.group(), args[0], rng);
    store.save_owner(mk, abe::owner_share(*store.group(), mk));
    std::printf("owner '%s' created; SK_o available to authorities\n", args[0].c_str());
    return 0;
  }

  int add_user(const std::vector<std::string>& args) {
    if (args.size() != 1) throw SchemeError("usage: add-user <uid>");
    if (store.has_user(args[0])) throw SchemeError("user exists: " + args[0]);
    store.save_user_pk(abe::ca_register_user(*store.group(), args[0], rng));
    std::printf("user '%s' registered (global UID assigned by CA)\n", args[0].c_str());
    return 0;
  }

  int grant(const std::vector<std::string>& args) {
    if (args.size() < 3) throw SchemeError("usage: grant <aid> <uid> <attr>...");
    AuthorityState state = store.load_authority(args[0]);
    if (!store.has_user(args[1])) throw SchemeError("unknown user: " + args[1]);
    for (size_t i = 2; i < args.size(); ++i) {
      if (!state.universe.contains(args[i]))
        throw SchemeError("authority '" + args[0] + "' does not manage '" + args[i] + "'");
      state.assignments[args[1]].insert(args[i]);
    }
    store.save_authority(state);
    std::printf("granted %zu attribute(s) at '%s' to '%s'\n", args.size() - 2,
                args[0].c_str(), args[1].c_str());
    return 0;
  }

  int issue_key(const std::vector<std::string>& args) {
    if (args.size() != 3) throw SchemeError("usage: issue-key <aid> <uid> <owner>");
    const AuthorityState state = store.load_authority(args[0]);
    const abe::UserPublicKey user = store.load_user_pk(args[1]);
    const abe::OwnerSecretShare share = store.load_owner_share(args[2]);
    const auto it = state.assignments.find(args[1]);
    const std::set<std::string> attrs =
        it == state.assignments.end() ? std::set<std::string>{} : it->second;
    store.save_user_key(abe::aa_keygen(*store.group(), state.vk, share, user, attrs));
    std::printf("issued key: user '%s', authority '%s' (v%u), owner '%s', %zu attrs\n",
                args[1].c_str(), args[0].c_str(), state.vk.version, args[2].c_str(),
                attrs.size());
    return 0;
  }

  // Builds current public keys for every authority the policy involves.
  void collect_public_keys(const lsss::LsssMatrix& policy,
                           std::map<std::string, abe::AuthorityPublicKey>* apks,
                           std::map<std::string, abe::PublicAttributeKey>* attr_pks) {
    auto grp = store.group();
    std::set<std::string> involved;
    for (const auto& attr : policy.row_attributes()) involved.insert(attr.aid);
    for (const std::string& aid : involved) {
      const AuthorityState state = store.load_authority(aid);
      apks->emplace(aid, abe::aa_public_key(*grp, state.vk));
      for (const std::string& name : state.universe) {
        const auto pk = abe::aa_attribute_key(*grp, state.vk, name);
        attr_pks->emplace(pk.attr.qualified(), pk);
      }
    }
  }

  int encrypt(const std::vector<std::string>& args) {
    if (args.size() != 4)
      throw SchemeError("usage: encrypt <owner> <file-id> <policy> <input-file>");
    auto grp = store.group();
    const abe::OwnerMasterKey mk = store.load_owner_master(args[0]);
    const std::string& file_id = args[1];
    Keystore::validate_id(file_id);
    if (server_has(file_id)) throw SchemeError("file exists: " + file_id);

    const lsss::LsssMatrix policy =
        lsss::LsssMatrix::from_policy(lsss::parse_policy(args[2]));
    std::map<std::string, abe::AuthorityPublicKey> apks;
    std::map<std::string, abe::PublicAttributeKey> attr_pks;
    collect_public_keys(policy, &apks, &attr_pks);

    // Hybrid encryption (Fig. 2), single component per file in the CLI.
    // The ciphertext carries the canonical hybrid slot id
    // "<file_id>/<component>" (cloud::slot_ct_id) — the keystore
    // percent-encodes it for the record's path.
    const std::string ct_id = cloud::slot_ct_id(file_id, "data");
    const pairing::GT seed = grp->gt_random(rng);
    abe::EncryptionResult enc =
        abe::encrypt(*grp, mk, ct_id, seed, policy, apks, attr_pks, rng);
    cloud::StoredFile file;
    file.file_id = file_id;
    file.owner_id = args[0];
    cloud::SealedSlot slot;
    slot.component_name = "data";
    slot.key_ct = enc.ct;
    slot.sealed_data = crypto::seal(cloud::content_key_from_gt(seed),
                                    read_whole_file(args[3]),
                                    cloud::slot_aad(file_id, "data"), rng);
    file.slots.push_back(std::move(slot));

    const Bytes wire = cloud::serialize(*grp, file);
    server_put(args[0], file_id, wire);
    store.save_record(args[0], enc.record);
    std::printf("stored '%s' (%zu bytes) under policy %s\n", file_id.c_str(),
                wire.size(), policy.policy_text().c_str());
    return 0;
  }

  int decrypt(const std::vector<std::string>& args) {
    if (args.size() != 3)
      throw SchemeError("usage: decrypt <uid> <file-id> <output-file>");
    auto grp = store.group();
    const cloud::StoredFile file =
        cloud::deserialize_stored_file(*grp, server_get("user:" + args[0], args[1]));
    const abe::UserPublicKey user = store.load_user_pk(args[0]);
    const auto keys = store.load_user_keys_for_owner(args[0], file.owner_id);
    const cloud::SealedSlot& slot = file.slots.at(0);
    const auto plan = abe::decryption_plan(*grp, slot.key_ct, keys);
    if (!plan) {
      std::printf("ACCESS DENIED: '%s' cannot decrypt '%s' (policy %s)\n",
                  args[0].c_str(), args[1].c_str(),
                  slot.key_ct.policy.policy_text().c_str());
      return 2;
    }
    const pairing::GT seed = abe::decrypt(*grp, slot.key_ct, user, *plan);
    const Bytes plain =
        crypto::open(cloud::content_key_from_gt(seed), slot.sealed_data,
                     cloud::slot_aad(file.file_id, slot.component_name));
    write_whole_file(args[2], plain);
    std::printf("decrypted '%s' -> '%s' (%zu bytes)\n", args[1].c_str(),
                args[2].c_str(), plain.size());
    return 0;
  }

  int revoke(const std::vector<std::string>& args) {
    if (args.size() != 3) throw SchemeError("usage: revoke <aid> <uid> <attr>");
    auto grp = store.group();
    const std::string &aid = args[0], &uid = args[1], &attr = args[2];

    AuthorityState state = store.load_authority(aid);
    auto assignment = state.assignments.find(uid);
    if (assignment == state.assignments.end() || assignment->second.erase(attr) == 0)
      throw SchemeError("user '" + uid + "' does not hold '" + attr + "' at '" + aid + "'");

    // Every owner's records are read before anything is written, so a
    // record that does not decode fails the revoke before the re-key.
    std::map<std::string, std::vector<abe::EncryptionRecord>> records;
    for (const std::string& owner_id : store.list_owners()) {
      for (const std::string& ct_id : store.list_records(owner_id))
        records[owner_id].push_back(store.load_record(owner_id, ct_id));
    }

    // Phase 1: new version key.
    const abe::AuthorityVersionKey old_vk = state.vk;
    state.vk = abe::aa_rekey(*grp, old_vk, rng).new_vk;
    store.save_authority(state);
    const abe::UserPublicKey revoked_pk = store.load_user_pk(uid);

    size_t keys_updated = 0, cts_reencrypted = 0;
    for (const std::string& owner_id : store.list_owners()) {
      const abe::OwnerSecretShare share = store.load_owner_share(owner_id);
      const abe::UpdateKey uk = abe::aa_make_update_key(*grp, old_vk, state.vk, share);

      // Revoked user: fresh key with the reduced attribute set.
      if (store.load_user_key(uid, owner_id, aid)) {
        store.save_user_key(abe::aa_regenerate_key(*grp, state.vk, share, revoked_pk,
                                                   assignment->second));
      }
      // Everyone else: apply the update key.
      for (const std::string& other : store.list_users()) {
        if (other == uid) continue;
        if (auto sk = store.load_user_key(other, owner_id, aid)) {
          store.save_user_key(abe::apply_update_to_secret_key(*grp, *sk, uk));
          ++keys_updated;
        }
      }

      // Phase 2: the owner emits every UpdateInfo of the epoch from its
      // records in one batch; the "server" re-encrypts the served slot in
      // place (slot ids are "<file_id>/<component>"), and the record
      // advances a version.
      const abe::OwnerMasterKey mk = store.load_owner_master(owner_id);
      std::vector<abe::EncryptionRecord>& owned = records[owner_id];
      std::vector<const abe::EncryptionRecord*> pass;
      for (const abe::EncryptionRecord& rec : owned) pass.push_back(&rec);
      auto rec = owned.begin();  // the infos follow the records' order
      for (const abe::UpdateInfo& ui : abe::owner_update_infos(*grp, mk, pass, uk)) {
        while (rec->ct_id != ui.ct_id) ++rec;
        const std::string file_id = cloud::split_slot_ct_id(ui.ct_id).first;
        cloud::StoredFile file = cloud::deserialize_stored_file(
            *grp, server_get("owner:" + owner_id, file_id));
        for (cloud::SealedSlot& slot : file.slots) {
          if (slot.key_ct.id == ui.ct_id) abe::reencrypt(*grp, &slot.key_ct, uk, ui);
        }
        server_put(owner_id, file_id, cloud::serialize(*grp, file));
        rec->versions.at(aid) = ui.to_version;
        store.save_record(owner_id, *rec);
        ++cts_reencrypted;
      }
    }
    std::printf("revoked '%s' from '%s' at '%s': version %u -> %u, "
                "%zu key(s) updated, %zu ciphertext(s) re-encrypted\n",
                attr.c_str(), uid.c_str(), aid.c_str(), old_vk.version,
                state.vk.version, keys_updated, cts_reencrypted);
    return 0;
  }

  int inspect(const std::vector<std::string>& args) {
    if (args.size() != 1) throw SchemeError("usage: inspect <file-id>");
    auto grp = store.group();
    const Bytes wire = server_load(args[0]);
    const cloud::StoredFile file = cloud::deserialize_stored_file(*grp, wire);
    std::printf("file '%s': owner '%s', %zu byte(s) on server\n", file.file_id.c_str(),
                file.owner_id.c_str(), wire.size());
    if (multi_node()) {
      std::printf("  replicas:");
      for (const std::string& node : ring.replicas_for(args[0]))
        std::printf(" %s%s", node.c_str(),
                    store.has_server_file(node, args[0]) ? "" : "(missing)");
      std::printf("\n");
    }
    for (const cloud::SealedSlot& slot : file.slots) {
      std::printf("  component '%s': policy %s\n", slot.component_name.c_str(),
                  slot.key_ct.policy.policy_text().c_str());
      for (const auto& [aid, version] : slot.key_ct.versions)
        std::printf("    authority '%s' at version %u\n", aid.c_str(), version);
      std::printf("    ABE group material %zu B, sealed payload %zu B\n",
                  abe::ciphertext_group_material_bytes(*grp, slot.key_ct),
                  slot.sealed_data.size());
    }
    return 0;
  }

  static void json_str_to(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }

  /// Aggregated observability document (--status): keystore entities,
  /// ring placement with per-shard occupancy, link/transport counters,
  /// and every maabe_slo_* gauge in the registry, as one JSON object.
  int status_json(const std::vector<std::string>&) {
    if (!store.initialized())
      throw SchemeError("keystore not initialized (run 'maabe-cli init' first)");
    std::string out = "{";
    out += "\"home\":";
    json_str_to(out, store.home().string());
    out += ",\"authorities\":[";
    bool first = true;
    for (const auto& aid : store.list_authorities()) {
      const AuthorityState s = store.load_authority(aid);
      if (!first) out += ",";
      first = false;
      out += "{\"aid\":";
      json_str_to(out, aid);
      out += ",\"version\":" + std::to_string(s.vk.version);
      out += ",\"attributes\":" + std::to_string(s.universe.size());
      out += ",\"assignments\":" + std::to_string(s.assignments.size()) + "}";
    }
    out += "],\"owners\":" + std::to_string(store.list_owners().size());
    out += ",\"users\":" + std::to_string(store.list_users().size());
    out += ",\"files\":" + std::to_string(server_list().size());
    out += ",\"cluster\":{\"replication\":" + std::to_string(ring.replication());
    out += ",\"nodes\":[";
    first = true;
    for (const std::string& node : ring.nodes()) {
      if (!first) out += ",";
      first = false;
      out += "{\"node\":";
      json_str_to(out, node);
      out += ",\"files\":" +
             std::to_string(store.list_server_files(shard_of(node)).size()) + "}";
    }
    out += "]}";
    out += ",\"link\":{\"sends_ok\":" + std::to_string(link.sends_ok());
    out += ",\"sends_failed\":" + std::to_string(link.sends_failed());
    out += ",\"retries\":" + std::to_string(link.retries()) + "}";
    // SLO burn-rate gauges (exported by a co-resident SloPlane; absent
    // in a cold CLI process, in which case the object is empty).
    out += ",\"slo_gauges\":{";
    const telemetry::Snapshot snap = telemetry::MetricsRegistry::global().collect();
    first = true;
    for (const auto& [name, value] : snap.gauges) {
      if (!name.starts_with("maabe_slo_")) continue;
      if (!first) out += ",";
      first = false;
      json_str_to(out, name);
      out += ":" + std::to_string(value);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  int status(const std::vector<std::string>&) {
    if (!store.initialized())
      throw SchemeError("keystore not initialized (run 'maabe-cli init' first)");
    std::printf("keystore: %s\n", store.home().string().c_str());
    std::printf("authorities:");
    for (const auto& aid : store.list_authorities()) {
      const AuthorityState s = store.load_authority(aid);
      std::printf(" %s(v%u,%zu attrs)", aid.c_str(), s.vk.version, s.universe.size());
    }
    std::printf("\nowners:");
    for (const auto& o : store.list_owners()) std::printf(" %s", o.c_str());
    std::printf("\nusers:");
    for (const auto& u : store.list_users()) std::printf(" %s", u.c_str());
    std::printf("\nfiles:");
    for (const auto& f : server_list()) std::printf(" %s", f.c_str());
    std::printf("\n");
    if (multi_node()) {
      std::printf("nodes (R=%zu):", ring.replication());
      for (const std::string& node : ring.nodes())
        std::printf(" %s(%zu)", node.c_str(), store.list_server_files(node).size());
      std::printf("\n");
    }
    return 0;
  }
};

int usage() {
  std::fprintf(stderr,
               "maabe-cli — multi-authority attribute-based access control\n"
               "usage: maabe-cli [--home DIR] [--threads N] [cluster flags] [chaos flags]\n"
               "                 <command> [args]\n\n"
               "  --threads N       crypto engine thread count (default: MAABE_THREADS\n"
               "                    env var, else hardware concurrency; 1 = serial)\n"
               "cluster flags (multi-node storage placement; repeat on every command):\n"
               "  --nodes N         spread stored files over N storage nodes via a\n"
               "                    consistent-hash ring (default 1 = single server)\n"
               "  --replication R   replicas kept per file, clamped to N (default 1)\n"
               "chaos flags (deterministic fault injection on the server data path):\n"
               "  --fault-seed N    seed for the fault schedule (default 1)\n"
               "  --drop-rate P     P(frame lost), 0 <= P <= 1 (default 0)\n"
               "  --corrupt-rate P  P(frame byte flipped), 0 <= P <= 1 (default 0)\n"
               "  --transport-stats print per-channel transport counters on exit\n"
               "telemetry flags:\n"
               "  --metrics-out F   write a Prometheus-style metrics snapshot to F\n"
               "                    on exit (also enables per-op pairing timing)\n"
               "  --trace-out F     stream operation spans to F as JSON lines\n"
               "  --status          print the aggregated observability JSON (entities,\n"
               "                    per-node placement, link counters, maabe_slo_* gauges)\n"
               "                    instead of running a command\n\n"
               "commands:\n"
               "  init [--test-curve]                  create the keystore\n"
               "  add-authority <aid> <attr>...        register an attribute authority\n"
               "  add-owner <id>                       create a data owner\n"
               "  add-user <uid>                       register a user with the CA\n"
               "  grant <aid> <uid> <attr>...          assign attributes to a user\n"
               "  issue-key <aid> <uid> <owner>        issue the user's secret key\n"
               "  encrypt <owner> <id> <policy> <in>   protect + upload a file\n"
               "  decrypt <uid> <id> <out>             download + decrypt a file\n"
               "  revoke <aid> <uid> <attr>            full revocation protocol\n"
               "  inspect <id>                         show a stored file's metadata\n"
               "  status                               list entities and files\n");
  return 64;
}

int run(int argc, char** argv) {
  fsys::path home = "maabe-home";
  TransportConfig transport_cfg;
  PlacementConfig placement_cfg;
  TelemetryConfig telemetry_cfg;
  bool status_flag = false;
  std::vector<std::string> args;
  const auto parse_count = [](const char* flag, const char* value, size_t* out) {
    const int n = std::atoi(value);
    if (n < 1) {
      std::fprintf(stderr, "%s expects a positive integer\n", flag);
      return false;
    }
    *out = static_cast<size_t>(n);
    return true;
  };
  const auto parse_rate = [](const char* flag, const char* value, double* out) {
    char* end = nullptr;
    *out = std::strtod(value, &end);
    if (end == value || *end != '\0' || *out < 0.0 || *out > 1.0) {
      std::fprintf(stderr, "%s expects a probability in [0, 1]\n", flag);
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--home") == 0 && i + 1 < argc) {
      home = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        return usage();
      }
      engine::CryptoEngine::set_default_threads(n);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      if (!parse_count("--nodes", argv[++i], &placement_cfg.nodes)) return usage();
    } else if (std::strcmp(argv[i], "--replication") == 0 && i + 1 < argc) {
      if (!parse_count("--replication", argv[++i], &placement_cfg.replication))
        return usage();
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      transport_cfg.fault_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--drop-rate") == 0 && i + 1 < argc) {
      if (!parse_rate("--drop-rate", argv[++i], &transport_cfg.drop_rate))
        return usage();
    } else if (std::strcmp(argv[i], "--corrupt-rate") == 0 && i + 1 < argc) {
      if (!parse_rate("--corrupt-rate", argv[++i], &transport_cfg.corrupt_rate))
        return usage();
    } else if (std::strcmp(argv[i], "--transport-stats") == 0) {
      transport_cfg.show_stats = true;
    } else if (std::strcmp(argv[i], "--status") == 0) {
      status_flag = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      telemetry_cfg.metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      telemetry_cfg.trace_out = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (status_flag) args.insert(args.begin(), "status-json");
  if (args.empty()) return usage();
  const std::string cmd = args.front();
  args.erase(args.begin());

  // Tracer setup before any crypto runs: it streams spans (flushed per
  // line) even if the command throws.
  if (!telemetry_cfg.trace_out.empty())
    telemetry::Tracer::global().enable(telemetry::JsonLinesSink(telemetry_cfg.trace_out));
  const auto export_telemetry = [&]() {
    if (!telemetry_cfg.trace_out.empty()) telemetry::Tracer::global().disable();
    if (!telemetry_cfg.metrics_out.empty()) {
      write_whole_file(telemetry_cfg.metrics_out,
                       bytes_of(telemetry::MetricsRegistry::global().collect()
                                    .prometheus_text()));
    }
  };

  Cli cli(home, transport_cfg, placement_cfg);
  const auto dispatch = [&]() -> int {
    if (cmd == "init") return cli.init(args);
    if (cmd == "add-authority") return cli.add_authority(args);
    if (cmd == "add-owner") return cli.add_owner(args);
    if (cmd == "add-user") return cli.add_user(args);
    if (cmd == "grant") return cli.grant(args);
    if (cmd == "issue-key") return cli.issue_key(args);
    if (cmd == "encrypt") return cli.encrypt(args);
    if (cmd == "decrypt") return cli.decrypt(args);
    if (cmd == "revoke") return cli.revoke(args);
    if (cmd == "inspect") return cli.inspect(args);
    if (cmd == "status") return cli.status(args);
    if (cmd == "status-json") return cli.status_json(args);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
  };
  try {
    int rc;
    {
      // Root span around the command so every nested engine/transport
      // span shares one trace id.
      telemetry::Span root = telemetry::Tracer::global().start_span("cli." + cmd);
      rc = dispatch();
      if (root.active()) root.attr("exit_code", static_cast<uint64_t>(rc));
    }
    if (transport_cfg.show_stats) cli.print_transport_stats();
    export_telemetry();
    return rc;
  } catch (const Error&) {
    if (transport_cfg.show_stats) cli.print_transport_stats();
    export_telemetry();
    throw;
  }
}

}  // namespace
}  // namespace maabe::tools

int main(int argc, char** argv) {
  try {
    return maabe::tools::run(argc, argv);
  } catch (const maabe::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unexpected error: %s\n", e.what());
    return 1;
  }
}
