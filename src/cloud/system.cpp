#include "cloud/system.h"

#include "abe/serial.h"
#include "common/errors.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

namespace {

std::string aa_name(const std::string& aid) { return "aa:" + aid; }
std::string owner_name(const std::string& id) { return "owner:" + id; }
std::string user_name(const std::string& uid) { return "user:" + uid; }
constexpr const char* kCa = "ca";

}  // namespace

CloudSystem::CloudSystem(std::shared_ptr<const pairing::Group> grp,
                         const std::string& seed)
    : CloudSystem(std::move(grp), seed, std::make_unique<LoopbackTransport>()) {}

CloudSystem::CloudSystem(std::shared_ptr<const pairing::Group> grp,
                         const std::string& seed, std::unique_ptr<LoopbackTransport> transport,
                         RetryPolicy retry, ClusterConfig cluster)
    : grp_(std::move(grp)),
      rng_(std::string_view(seed)),
      ca_(grp_, crypto::Drbg(std::string_view(seed + "/ca"))),
      transport_(std::move(transport)),
      link_(*transport_, retry),
      durable_(link_),
      cluster_(grp_, cluster, link_, durable_) {
  // Snapshot-time gauges for state that is not a count of events. The
  // token (last member) is destroyed first, and reset() blocks on any
  // in-flight collect(), so the callback never reads a dying system.
  collector_ = telemetry::MetricsRegistry::global().register_collector(
      [this](telemetry::Snapshot& snap) {
        const telemetry::Labels l{{"instance", instance()}};
        const auto put = [&snap](const char* name, const telemetry::Labels& labels,
                                 uint64_t v) {
          snap.add_gauge(name, labels, static_cast<int64_t>(v));
        };
        put("maabe_system_pending_deliveries", l, durable_.pending_count());
        put("maabe_system_applied_requests", l, link_.applied_requests());
        const ChannelStats t = transport_->meter().totals();
        put("maabe_system_channel_payload_bytes", l, t.payload_bytes);
        put("maabe_system_channel_bytes_delivered", l, t.bytes_delivered);
        put("maabe_system_channel_bytes_accepted", l, t.bytes_accepted);
        put("maabe_cluster_replication_lag", l, cluster_.recovery().pending_hints());
        for (const std::string& node : cluster_.node_names()) {
          const ServerStats ss = cluster_.node_store(node).stats();
          const telemetry::Labels nl{{"instance", instance()}, {"node", node}};
          put("maabe_system_server_files", nl, ss.files);
          put("maabe_system_server_bytes", nl, ss.bytes);
          put("maabe_server_epochs_staged_open", nl, ss.epochs_staged_open);
        }
      });
}

crypto::Drbg CloudSystem::fork_rng(const std::string& label) {
  crypto::Drbg fork(rng_.bytes(48));
  fork.reseed(bytes_of(label));
  return fork;
}

// ---------------------------------------------- degraded-mode plumbing --

size_t CloudSystem::flush_pending() {
  // Staged epochs resolve first and parked deliveries replay next, so no
  // holder's hints wait on a staged epoch; then the hints; then the
  // writes parked behind them.
  cluster_.recovery().resolve_staged_epochs();
  durable_.flush_all();
  cluster_.recovery().drain_all_hints();
  return durable_.flush_all() + cluster_.recovery().pending_hints();
}

CloudSystem::Health CloudSystem::health() const {
  Health h;
  h.transport = transport_->meter().totals();
  h.sends_ok = link_.sends_ok();
  h.sends_failed = link_.sends_failed();
  h.applied_requests = link_.applied_requests();
  h.pending_by_destination = durable_.pending_by_destination();
  for (const auto& [to, n] : h.pending_by_destination) h.pending_deliveries += n;
  h.virtual_ms = transport_->now_ms();
  return h;
}

NodeHealth CloudSystem::health(const std::string& node_id) const {
  NodeHealth h = cluster_.node_health(node_id);
  h.pending_in = durable_.pending_for(node_id) + h.replication_lag;
  for (const auto& [channel, stats] : transport_->meter().entries()) {
    if (channel.second == node_id) h.transport_in += stats;
    if (channel.first == node_id) h.transport_out += stats;
  }
  return h;
}

std::vector<NodeHealth> CloudSystem::cluster_health() const {
  std::vector<NodeHealth> out;
  out.reserve(cluster_.size());
  for (const std::string& name : cluster_.node_names()) out.push_back(health(name));
  return out;
}

telemetry::Snapshot CloudSystem::telemetry_snapshot() const {
  return telemetry::MetricsRegistry::global().collect();
}

namespace {

void status_escape_to(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

std::string status_str(std::string_view s) {
  std::string out = "\"";
  status_escape_to(out, s);
  out += "\"";
  return out;
}

}  // namespace

std::string CloudSystem::status_json() const {
  // Fields the exposition also carries are read from one snapshot by
  // this system's labels, so the document and the text always agree.
  const telemetry::Snapshot snap = telemetry_snapshot();
  const telemetry::Labels l{{"instance", instance()}};
  std::string out = "{";
  // Appends `"key":value`, comma-separated inside the open object.
  const auto put = [&out](std::string_view key, const std::string& value) {
    if (out.back() != '{') out += ',';
    out += status_str(key) + ":" + value;
  };
  const auto num = [](auto v) { return std::to_string(v); };
  put("cluster", "{");
  put("nodes", num(cluster_.size()));
  put("alive", num(snap.gauge("maabe_cluster_nodes_alive", l)));
  put("replication", num(cluster_.config().replication));
  put("coordinator", status_str(cluster_.coordinator()));
  out += "}";
  put("replication_lag", num(snap.gauge("maabe_cluster_replication_lag", l)));
  put("pending_deliveries", num(snap.gauge("maabe_system_pending_deliveries", l)));
  put("pending_by_destination", "{");
  for (const auto& [to, n] : durable_.pending_by_destination()) put(to, num(n));
  out += "}";
  put("link", "{");
  for (const char* f : {"sends_ok", "sends_failed", "retries", "parked_rejected"})
    put(f, num(snap.counter("maabe_transport_" + std::string(f) + "_total", l)));
  out += "}";
  int64_t staged_total = 0;
  put("nodes", "[");
  for (const NodeHealth& nh : cluster_health()) {
    const telemetry::Labels nl{{"instance", instance()}, {"node", nh.node}};
    const int64_t staged = snap.gauge("maabe_server_epochs_staged_open", nl);
    staged_total += staged;
    out += out.back() == '[' ? "{" : ",{";
    put("node", status_str(nh.node));
    put("alive", nh.alive ? "true" : "false");
    put("files", num(snap.gauge("maabe_system_server_files", nl)));
    put("bytes", num(snap.gauge("maabe_system_server_bytes", nl)));
    put("epochs_committed", num(snap.counter("maabe_server_epochs_committed_total", nl)));
    put("epochs_aborted", num(snap.counter("maabe_server_epochs_aborted_total", nl)));
    put("epochs_staged_open", num(staged));
    put("pending_in", num(nh.pending_in));
    put("replication_lag", num(nh.replication_lag));
    out += "}";
  }
  out += "]";
  put("staged_epochs", num(staged_total));
  // The SLO plane exports maabe_slo_<name>_{met,burn_short_x1000,
  // burn_long_x1000,samples} gauges (slo.h); fold them back into
  // per-objective sub-objects so burn rates ride the same document.
  static constexpr std::string_view kSloPrefix = "maabe_slo_";
  static constexpr std::string_view kSuffixes[] = {
      "_met", "_burn_short_x1000", "_burn_long_x1000", "_samples"};
  std::map<std::string, std::map<std::string, int64_t>> slos;
  for (const auto& [name, value] : snap.gauges) {
    if (!name.starts_with(kSloPrefix)) continue;
    for (const std::string_view suffix : kSuffixes) {
      if (!name.ends_with(suffix)) continue;
      const std::string objective =
          name.substr(kSloPrefix.size(),
                      name.size() - kSloPrefix.size() - suffix.size());
      if (!objective.empty()) slos[objective][std::string(suffix.substr(1))] = value;
      break;
    }
  }
  put("slo", "{");
  for (const auto& [objective, fields] : slos) {
    put(objective, "{");
    for (const auto& [k, v] : fields) put(k, num(v));
    out += "}";
  }
  out += "}}";
  return out;
}

// -------------------------------------------------------- enrollment --

AttributeAuthority& CloudSystem::add_authority(const std::string& aid,
                                               const std::set<std::string>& attributes) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.add_authority");
  if (span.active()) span.attr("aid", aid);
  if (authorities_.contains(aid))
    throw SchemeError("CloudSystem: authority '" + aid + "' already exists");
  // Idempotent against a retried call whose AID-assignment frame was
  // lost: the CA registration may already exist.
  if (!ca_.has_authority(aid)) ca_.register_authority(aid);
  // AID assignment: the authority comes alive only when the CA's
  // notification actually arrives.
  link_.send(kCa, aa_name(aid), bytes_of(aid), [&](ByteView payload) {
    const std::string assigned(payload.begin(), payload.end());
    auto [it, inserted] = authorities_.emplace(
        assigned, AttributeAuthority(grp_, assigned, fork_rng("aa/" + assigned)));
    for (const std::string& name : attributes) it->second.define_attribute(name);
  });
  // Late-joining authorities still need every existing owner's SK_o.
  // Shares park if the authority is unreachable and replay later.
  for (auto& [owner_id, owner] : owners_) {
    durable_.send_or_park(owner_name(owner_id), aa_name(aid),
                          abe::serialize(*grp_, owner.share()),
                          [this, aid](ByteView payload) {
                            authorities_.at(aid).accept_owner_share(
                                abe::deserialize_owner_secret_share(*grp_, payload));
                          },
                          "owner share");
  }
  return authorities_.at(aid);
}

Consumer& CloudSystem::add_user(const std::string& uid) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.add_user");
  if (span.active()) span.attr("uid", uid);
  if (users_.contains(uid)) throw SchemeError("CloudSystem: user '" + uid + "' already exists");
  const abe::UserPublicKey& pk =
      ca_.has_user(uid) ? ca_.user_public_key(uid) : ca_.register_user(uid);
  link_.send(kCa, user_name(uid), abe::serialize(*grp_, pk), [&](ByteView payload) {
    users_.emplace(uid,
                   Consumer(grp_, abe::deserialize_user_public_key(*grp_, payload),
                            instance()));
  });
  return users_.at(uid);
}

DataOwner& CloudSystem::add_owner(const std::string& owner_id) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.add_owner");
  if (span.active()) span.attr("owner", owner_id);
  if (owners_.contains(owner_id))
    throw SchemeError("CloudSystem: owner '" + owner_id + "' already exists");
  auto [it, inserted] =
      owners_.emplace(owner_id, DataOwner(grp_, owner_id, fork_rng("owner/" + owner_id)));
  // SK_o goes to every authority over a secure channel; undeliverable
  // shares park (the authority cannot issue keys for this owner until
  // its share arrives — a typed SchemeError, not silent success).
  const Bytes share_bytes = abe::serialize(*grp_, it->second.share());
  for (auto& [aid, aa] : authorities_) {
    durable_.send_or_park(owner_name(owner_id), aa_name(aid), share_bytes,
                          [this, aid](ByteView payload) {
                            authorities_.at(aid).accept_owner_share(
                                abe::deserialize_owner_secret_share(*grp_, payload));
                          },
                          "owner share");
  }
  return it->second;
}

// ------------------------------------------------- attribute & keys --

void CloudSystem::assign_attributes(const std::string& aid, const std::string& uid,
                                    const std::set<std::string>& attributes) {
  if (!users_.contains(uid)) throw SchemeError("CloudSystem: unknown user '" + uid + "'");
  AttributeAuthority& aa = authority(aid);
  Writer w;
  w.str(uid);
  w.u32(static_cast<uint32_t>(attributes.size()));
  for (const std::string& name : attributes) w.str(name);
  link_.send(kCa, aa_name(aid), w.bytes(), [&](ByteView payload) {
    Reader r(payload);
    const std::string target = r.str();
    std::set<std::string> names;
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) names.insert(r.str());
    r.expect_done();
    aa.assign(target, names);
  });
}

void CloudSystem::issue_user_key(const std::string& aid, const std::string& uid,
                                 const std::string& owner_id) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.issue_user_key");
  if (span.active()) {
    span.attr("aid", aid);
    span.attr("uid", uid);
    span.attr("owner", owner_id);
  }
  AttributeAuthority& aa = authority(aid);
  Consumer& consumer = user(uid);
  const abe::UserSecretKey sk = aa.issue_key(consumer.public_key(), owner_id);
  link_.send(aa_name(aid), user_name(uid), abe::serialize(*grp_, sk),
             [&](ByteView payload) {
               consumer.add_key(abe::deserialize_user_secret_key(*grp_, payload));
             });
}

void CloudSystem::publish_authority_keys(const std::string& aid,
                                         const std::string& owner_id) {
  AttributeAuthority& aa = authority(aid);
  DataOwner& data_owner = owner(owner_id);
  abe::AuthorityKeyBundle keys{aa.public_key(), {}};
  for (auto& [handle, pk] : aa.attribute_public_keys())
    keys.attribute_keys.push_back(std::move(pk));
  link_.send(aa_name(aid), owner_name(owner_id), abe::serialize(*grp_, keys),
             [&](ByteView payload) {
               const abe::AuthorityKeyBundle got =
                   abe::deserialize_authority_key_bundle(*grp_, payload);
               data_owner.learn_authority_key(got.pk);
               for (const abe::PublicAttributeKey& pk : got.attribute_keys)
                 data_owner.learn_attribute_key(pk);
             });
}

// --------------------------------------------------------- data path --

void CloudSystem::upload(const std::string& owner_id, const std::string& file_id,
                         const std::vector<DataComponent>& components) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.upload");
  if (span.active()) {
    span.attr("owner", owner_id);
    span.attr("file_id", file_id);
  }
  DataOwner& data_owner = owner(owner_id);
  StoredFile file = data_owner.protect(file_id, components);
  // Route to the file's coordinator; the node stores its copy and fans
  // replication ops to the other replicas from inside the apply.
  const std::string target = cluster_.route_for(file_id);
  durable_.send_or_park(owner_name(owner_id), target, serialize(*grp_, file),
                        [this, target](ByteView payload) {
                          cluster_.handle_store(target, payload);
                        },
                        "upload " + file_id);
}

std::map<std::string, Bytes> CloudSystem::DownloadReport::opened() const {
  std::map<std::string, Bytes> out;
  for (const SlotReport& slot : slots) {
    if (slot.state == SlotState::kOk) out.emplace(slot.component, slot.plaintext);
  }
  return out;
}

bool CloudSystem::DownloadReport::all_ok() const {
  for (const SlotReport& slot : slots) {
    if (slot.state != SlotState::kOk) return false;
  }
  return true;
}

bool CloudSystem::DownloadReport::any_corrupt() const {
  for (const SlotReport& slot : slots) {
    if (slot.state == SlotState::kCorrupt) return true;
  }
  return false;
}

CloudSystem::DownloadReport CloudSystem::download_report(const std::string& uid,
                                                         const std::string& file_id) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.download");
  if (span.active()) {
    span.attr("uid", uid);
    span.attr("file_id", file_id);
  }
  Consumer& consumer = user(uid);
  // Fail closed: never serve reads while revocation epochs (or earlier
  // uploads) are parked for any node — a stale ciphertext could still
  // open under a revoked key. Staged epochs resolve first from the
  // decision logs, so a committed epoch whose notification was lost is
  // applied before the read; then hints drain, so a write parked behind
  // one replays in this flush. The flush may replay a parked epoch whose
  // notifications are lost in turn, so the resolver runs again after it.
  cluster_.recovery().resolve_staged_epochs();
  cluster_.recovery().drain_all_hints();
  for (const std::string& name : cluster_.node_names()) durable_.flush_queue(name);
  cluster_.recovery().resolve_staged_epochs();
  for (const std::string& name : cluster_.node_names()) {
    const std::vector<std::string> labels = durable_.pending_labels(name);
    if (!labels.empty()) {
      throw TransportError(TransportError::Kind::kDegraded,
                           "CloudSystem: " + name + " has " +
                               std::to_string(labels.size()) +
                               " pending read-gating deliveries (first: " +
                               labels.front() + "); refusing download of '" +
                               file_id + "'");
    }
  }
  // Best effort: deliver any parked key material for this user first so
  // it can open everything it is entitled to.
  durable_.flush_queue(user_name(uid));

  // Request leg: the user asks the file's coordinator for it by id; the
  // coordinator answers with a quorum read (+ read-repair). Failures
  // out of the fetch (quorum not met, unknown file) are protocol
  // errors, not transport errors — captured so the link does not retry
  // an already-applied request.
  const std::string coord = cluster_.route_for(file_id);
  Bytes wire;
  std::exception_ptr fetch_error;
  link_.send(user_name(uid), coord, bytes_of(file_id), [&](ByteView payload) {
    try {
      wire = cluster_.handle_fetch(coord, std::string(payload.begin(), payload.end()));
    } catch (const Error&) {
      fetch_error = std::current_exception();
    }
  });
  if (fetch_error) std::rethrow_exception(fetch_error);

  // Response leg: the file travels back as bytes, serialized once — the
  // transport meters the actual frame, there is no second serialization.
  DownloadReport report;
  report.file_id = file_id;
  link_.send(coord, user_name(uid), wire,
             [&](ByteView payload) { report.slots = open_wire(consumer, payload); });
  return report;
}

std::vector<CloudSystem::SlotReport> CloudSystem::open_wire(const Consumer& consumer,
                                                           ByteView wire) const {
  // The views point into `wire` and do not outlive this call. A hit needs
  // no plan: its bytes decrypted under the keys held now, since every key
  // change empties the cache. Decoding every miss before opening any slot
  // keeps a malformed point from failing the file halfway through.
  const StoredFileView file = view_stored_file(wire);
  const size_t n = file.slots.size();
  std::vector<Bytes> cache_keys(n);
  std::vector<std::optional<SealedSlot>> decoded(n);
  for (size_t i = 0; i < n; ++i) {
    cache_keys[i] = consumer.decrypt_cache_key(file.file_id, file.slots[i]);
    if (!consumer.decrypt_cached(cache_keys[i])) decoded[i] = decode_slot(*grp_, file.slots[i]);
  }
  std::vector<SlotReport> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SlotReport& sr = out.emplace_back();
    sr.component = file.slots[i].component_name;
    if (!decoded[i]) {
      if (std::optional<Bytes> plaintext = consumer.cached_plaintext(cache_keys[i])) {
        sr.plaintext = std::move(*plaintext);
        sr.state = SlotState::kOk;
        continue;
      }
      // An earlier slot of this file evicted it; bytes that decoded once
      // decode again.
      decoded[i] = decode_slot(*grp_, file.slots[i]);
    }
    const auto plan = consumer.decryption_plan(*decoded[i]);
    if (!plan) {
      sr.state = SlotState::kNoKey;
      sr.detail = "no usable key (authority unreachable, attributes "
                  "insufficient, or key version stale)";
      continue;
    }
    try {
      sr.plaintext = consumer.open_slot(file.file_id, *decoded[i], *plan, cache_keys[i]);
      sr.state = SlotState::kOk;
    } catch (const CryptoError& e) {
      sr.state = SlotState::kCorrupt;
      sr.detail = e.what();
    } catch (const Error& e) {
      sr.state = SlotState::kError;
      sr.detail = e.what();
    }
  }
  return out;
}

std::map<std::string, Bytes> CloudSystem::download(const std::string& uid,
                                                   const std::string& file_id) {
  const DownloadReport report = download_report(uid, file_id);
  for (const SlotReport& slot : report.slots) {
    if (slot.state == SlotState::kCorrupt)
      throw CryptoError("CloudSystem: slot '" + slot.component + "' of '" + file_id +
                        "': " + slot.detail);
    if (slot.state == SlotState::kError)
      throw SchemeError("CloudSystem: slot '" + slot.component + "' of '" + file_id +
                        "': " + slot.detail);
  }
  return report.opened();
}

// -------------------------------------------------------- revocation --

size_t CloudSystem::revoke_attribute(const std::string& aid, const std::string& uid,
                                     const std::string& attribute) {
  telemetry::Span span =
      telemetry::Tracer::global().start_span("system.revoke_attribute");
  if (span.active()) {
    span.attr("aid", aid);
    span.attr("uid", uid);
    span.attr("attribute", attribute);
  }
  AttributeAuthority& aa = authority(aid);
  Consumer& revoked = user(uid);
  const uint32_t from_version = aa.version();
  // ---- Phase 1: Key Update (AA side) ----------------------------------
  const AttributeAuthority::RevocationBundle bundle =
      aa.revoke(revoked.public_key(), attribute);
  return distribute_revocation(aid, uid, from_version, bundle);
}

size_t CloudSystem::revoke_user(const std::string& aid, const std::string& uid) {
  telemetry::Span span = telemetry::Tracer::global().start_span("system.revoke_user");
  if (span.active()) {
    span.attr("aid", aid);
    span.attr("uid", uid);
  }
  AttributeAuthority& aa = authority(aid);
  Consumer& revoked = user(uid);
  const uint32_t from_version = aa.version();
  const AttributeAuthority::RevocationBundle bundle =
      aa.revoke_all(revoked.public_key());
  return distribute_revocation(aid, uid, from_version, bundle);
}

size_t CloudSystem::distribute_revocation(
    const std::string& aid, const std::string& uid, uint32_t from_version,
    const AttributeAuthority::RevocationBundle& bundle) {
  Consumer& revoked = user(uid);
  const uint64_t slots_before = cluster_.total_reencrypted_slots();

  // 1) Fresh (reduced) secret keys to the revoked user — only for owners
  //    whose data the user actually holds keys for. Undeliverable keys
  //    park; until they land the user still fails closed, because the
  //    server-side epoch (step 3) version-locks the old key out.
  for (const auto& [owner_id, sk] : bundle.regenerated_keys) {
    if (!revoked.has_key(owner_id, aid)) continue;
    durable_.send_or_park(aa_name(aid), user_name(uid), abe::serialize(*grp_, sk),
                          [this, uid](ByteView payload) {
                            // Update keys delivered before this one apply first.
                            apply_key_updates();
                            users_.at(uid).replace_key(
                                abe::deserialize_user_secret_key(*grp_, payload));
                          },
                          "regenerated key");
  }

  // 2) Update keys to every other user holding keys from this AA.
  //    Delivered exactly once per request id — a duplicated frame must
  //    not fold UK2 into the key twice. Decoded on-curve only and
  //    collected, then applied as one batch (apply_key_updates), which
  //    checks each distinct UK1's subgroup in the pass that raises the
  //    keys. A failure mid-loop still applies what was delivered.
  collecting_key_updates_ = true;
  try {
    for (auto& [other_uid, consumer] : users_) {
      if (other_uid == uid) continue;
      for (const auto& [owner_id, uk] : bundle.update_keys) {
        if (!consumer.has_key(owner_id, aid)) continue;
        durable_.send_or_park(
            aa_name(aid), user_name(other_uid), abe::serialize(*grp_, uk),
            [this, other = other_uid](ByteView payload) {
              deliver_update_key(other, abe::deserialize_update_key(
                                            *grp_, payload, abe::UkCheck::kCiphertextPath));
            },
            "update key");
      }
    }
  } catch (...) {
    collecting_key_updates_ = false;
    apply_key_updates();
    throw;
  }
  collecting_key_updates_ = false;
  apply_key_updates();

  // 3) Update keys to every owner; each owner refreshes its cached
  //    public keys, emits UpdateInfo for affected ciphertexts and ships
  //    {UK, UpdateInfo*} to the epoch coordinator as one epoch message.
  //    Both hops park-and-replay, so an epoch that cannot reach the
  //    cluster is applied (in version order) before any later read. The
  //    coordinator runs the epoch as a 2PC across every node (DESIGN.md
  //    §13); an aborted 2PC rethrows, so the epoch message itself stays
  //    parked and replays.
  for (auto& [owner_id, data_owner] : owners_) {
    const auto uk_it = bundle.update_keys.find(owner_id);
    if (uk_it == bundle.update_keys.end()) continue;
    durable_.send_or_park(
        aa_name(aid), owner_name(owner_id), abe::serialize(*grp_, uk_it->second),
        [this, from_version, owner_id](ByteView payload) {
          DataOwner& o = owners_.at(owner_id);
          // On-curve only: the owner's update checks UK1 in its pass.
          const abe::UpdateKey uk =
              abe::deserialize_update_key(*grp_, payload, abe::UkCheck::kCiphertextPath);
          if (!o.apply_update(uk)) return;
          // ---- Phase 2: Data Re-encryption -----------------------------
          const std::vector<abe::UpdateInfo> infos = o.update_infos(uk);
          if (infos.empty()) return;
          Writer w;
          w.var_bytes(abe::serialize(*grp_, uk));
          w.u32(static_cast<uint32_t>(infos.size()));
          for (const abe::UpdateInfo& ui : infos) w.var_bytes(abe::serialize(*grp_, ui));
          const std::string target = cluster_.coordinator();
          durable_.send_or_park(
              owner_name(owner_id), target, w.take(),
              [this, target](ByteView epoch) { cluster_.handle_epoch(target, epoch); },
              "revocation epoch v" + std::to_string(from_version + 1));
        },
        "owner update key");
  }
  return static_cast<size_t>(cluster_.total_reencrypted_slots() - slots_before);
}

void CloudSystem::deliver_update_key(const std::string& uid, abe::UpdateKey uk) {
  key_updates_.push_back({&users_.at(uid), std::move(uk)});
  if (!collecting_key_updates_) apply_key_updates();
}

void CloudSystem::apply_key_updates() {
  const std::vector<KeyUpdateDelivery> batch = std::move(key_updates_);
  key_updates_.clear();
  cloud::apply_key_updates(*grp_, batch);
}

// ------------------------------------------------------ introspection --

AttributeAuthority& CloudSystem::authority(const std::string& aid) {
  const auto it = authorities_.find(aid);
  if (it == authorities_.end())
    throw SchemeError("CloudSystem: unknown authority '" + aid + "'");
  return it->second;
}

DataOwner& CloudSystem::owner(const std::string& owner_id) {
  const auto it = owners_.find(owner_id);
  if (it == owners_.end())
    throw SchemeError("CloudSystem: unknown owner '" + owner_id + "'");
  return it->second;
}

Consumer& CloudSystem::user(const std::string& uid) {
  const auto it = users_.find(uid);
  if (it == users_.end()) throw SchemeError("CloudSystem: unknown user '" + uid + "'");
  return it->second;
}

CloudSystem::StorageReport CloudSystem::storage_report() const {
  StorageReport report;
  // AA: just the version key (one exponent) — the paper's Table III
  // headline advantage over Lewko's 2*n_k exponents.
  for (const auto& [aid, aa] : authorities_) {
    report.per_entity["aa:" + aid] = grp_->zr_size();
  }
  for (const auto& [owner_id, data_owner] : owners_) {
    // MK_o (two exponents) + cached authority/attribute public keys.
    size_t bytes = 2 * grp_->zr_size();
    // Count cached keys by re-deriving their serialized sizes.
    // (The owner caches one AuthorityPublicKey per AA and one
    // PublicAttributeKey per attribute.)
    for (const auto& [aid, aa] : authorities_) {
      bytes += grp_->gt_size();
      bytes += aa.attribute_public_keys().size() * grp_->g1_size();
    }
    report.per_entity["owner:" + owner_id] = bytes;
  }
  for (const auto& [uid, consumer] : users_) {
    report.per_entity["user:" + uid] = consumer.key_storage_bytes();
  }
  // One row per node: "server" on a single-node cluster (the legacy
  // layout), "node:<i>" rows on a multi-node one.
  for (const std::string& name : cluster_.node_names()) {
    report.per_entity[name] = cluster_.node_store(name).storage_bytes();
  }
  return report;
}

}  // namespace maabe::cloud
