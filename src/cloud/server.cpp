#include "cloud/server.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "abe/serial.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "engine/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

ServerStats& ServerStats::operator+=(const ServerStats& o) {
  files += o.files;
  bytes += o.bytes;
  stores += o.stores;
  fetches += o.fetches;
  reencrypted_slots += o.reencrypted_slots;
  epochs_committed += o.epochs_committed;
  epochs_aborted += o.epochs_aborted;
  epochs_staged_open += o.epochs_staged_open;
  return *this;
}

CloudServer::CloudServer(std::shared_ptr<const pairing::Group> grp, size_t shard_count,
                         std::string node_name, const std::string& instance)
    : grp_(std::move(grp)),
      node_name_(std::move(node_name)),
      shards_(shard_count == 0 ? 1 : shard_count) {
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Labels l{{"instance", instance}, {"node", node_name_}};
  m_ = {reg.counter("maabe_server_stores_total", l),
        reg.counter("maabe_server_fetches_total", l),
        reg.counter("maabe_server_reencrypted_slots_total", l),
        reg.counter("maabe_server_epochs_committed_total", l),
        reg.counter("maabe_server_epochs_aborted_total", l)};
}

size_t CloudServer::shard_of(const std::string& file_id) const {
  return std::hash<std::string>{}(file_id) % shards_.size();
}

namespace {

void check_storable(const std::string& file_id, const std::string& owner_id) {
  if (file_id.empty()) throw SchemeError("CloudServer: empty file id");
  if (owner_id.empty())
    throw SchemeError("CloudServer: file '" + file_id +
                      "' has empty owner id (would escape revocation)");
}

/// check_stored_file, then the store's own rules on the view.
StoredFileView check(const pairing::Group& grp, ByteView wire) {
  StoredFileView view = check_stored_file(grp, wire);
  check_storable(view.file_id, view.owner_id);
  return view;
}

}  // namespace

void CloudServer::store(StoredFile file) {
  check_storable(file.file_id, file.owner_id);
  auto wire = std::make_shared<const Bytes>(serialize(*grp_, file));
  Shard& sh = shards_[shard_of(file.file_id)];
  auto snapshot = std::make_shared<const StoredFile>(std::move(file));
  std::unique_lock lk(sh.mu);
  const auto [it, inserted] = sh.files.try_emplace(snapshot->file_id);
  Entry& e = it->second;
  if (inserted) e.hash = crypto::Sha256::digest(*wire);
  e.wire = std::move(wire);
  e.owner_id = snapshot->owner_id;
  e.file = std::move(snapshot);
  m_.stores->inc();
}

bool CloudServer::has_file(const std::string& file_id) const {
  const Shard& sh = shards_[shard_of(file_id)];
  std::shared_lock lk(sh.mu);
  return sh.files.contains(file_id);
}

std::shared_ptr<const StoredFile> CloudServer::fetch(const std::string& file_id) const {
  const size_t s = shard_of(file_id);
  std::vector<Pick> pick;
  {
    std::shared_lock lk(shards_[s].mu);
    const auto it = shards_[s].files.find(file_id);
    if (it == shards_[s].files.end())
      throw SchemeError("CloudServer: no file '" + file_id + "'");
    m_.fetches->inc();
    pick.push_back({s, file_id, it->second.wire, it->second.file});
  }
  decode(pick);
  return pick.front().file;
}

void CloudServer::decode(std::vector<Pick>& picks) const {
  std::vector<Pick*> undecoded;
  std::vector<ByteView> wires;
  for (Pick& p : picks) {
    if (p.file) continue;
    undecoded.push_back(&p);
    wires.push_back(*p.wire);
  }
  if (undecoded.empty()) return;
  std::vector<StoredFile> files = deserialize_stored_files(*grp_, wires);
  for (size_t i = 0; i < undecoded.size(); ++i) {
    Pick& p = *undecoded[i];
    p.file = std::make_shared<const StoredFile>(std::move(files[i]));
    std::unique_lock lk(shards_[p.shard].mu);
    const auto it = shards_[p.shard].files.find(p.file_id);
    if (it != shards_[p.shard].files.end() && it->second.wire == p.wire && !it->second.file)
      it->second.file = p.file;
  }
}

FetchReply CloudServer::copy(const std::string& file_id) const {
  FetchReply reply = peek(file_id);
  if (reply.found) m_.fetches->inc();
  return reply;
}

FetchReply CloudServer::peek(const std::string& file_id) const {
  const Shard& sh = shards_[shard_of(file_id)];
  std::shared_lock lk(sh.mu);
  const auto it = sh.files.find(file_id);
  if (it == sh.files.end()) return FetchReply{};
  return FetchReply{true, it->second.version, it->second.hash, *it->second.wire};
}

uint64_t CloudServer::version_of(const std::string& file_id) const {
  const Shard& sh = shards_[shard_of(file_id)];
  std::shared_lock lk(sh.mu);
  const auto it = sh.files.find(file_id);
  return it == sh.files.end() ? 0 : it->second.version;
}

bool CloudServer::apply(ReplicationOp op) {
  StoredFileView view = check(*grp_, op.wire);
  if (view.file_id != op.file_id)
    throw SchemeError("CloudServer: replication op for '" + op.file_id +
                      "' carries file '" + view.file_id + "'");
  Shard& sh = shards_[shard_of(op.file_id)];
  std::unique_lock lk(sh.mu);
  const auto [it, inserted] = sh.files.try_emplace(op.file_id);
  Entry& e = it->second;
  if (!inserted) {
    if (op.version < e.version) return false;
    if (op.version == e.version && crypto::Sha256::digest(*e.wire) == op.hash)
      return false;  // converged
  }
  e = Entry{std::make_shared<const Bytes>(std::move(op.wire)), op.version, std::move(op.hash),
            std::move(view.owner_id), nullptr};
  m_.stores->inc();
  return true;
}

ReplicationOp CloudServer::apply_next(Bytes wire) {
  StoredFileView view = check(*grp_, wire);
  ReplicationOp op{std::move(view.file_id), 0, crypto::Sha256::digest(wire), wire};
  Shard& sh = shards_[shard_of(op.file_id)];
  std::unique_lock lk(sh.mu);
  Entry& e = sh.files[op.file_id];
  op.version = e.version + 1;
  e = Entry{std::make_shared<const Bytes>(std::move(wire)), op.version, op.hash,
            std::move(view.owner_id), nullptr};
  m_.stores->inc();
  return op;
}

Bytes CloudServer::snapshot() const {
  std::map<std::string, Entry> entries;  // sorted across shards
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    entries.insert(sh.files.begin(), sh.files.end());
  }
  Writer w;
  w.u32(static_cast<uint32_t>(entries.size()));
  for (const auto& [id, e] : entries) {
    w.str(id);
    w.u64(e.version);
    w.var_bytes(*e.wire);
  }
  return w.take();
}

std::vector<std::string> CloudServer::file_ids() const {
  std::vector<std::string> out;
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    for (const auto& [id, entry] : sh.files) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t CloudServer::reencrypt(const abe::UpdateKey& uk,
                              const std::vector<abe::UpdateInfo>& infos) {
  return commit(stage(uk, infos));
}

CloudServer::StagedEpoch CloudServer::stage(const abe::UpdateKey& uk,
                                            const std::vector<abe::UpdateInfo>& infos) {
  telemetry::Span stage_span =
      telemetry::Tracer::global().start_span("server.reencrypt_stage");
  if (stage_span.active()) {
    stage_span.attr("aid", uk.aid);
    stage_span.attr("owner", uk.owner_id);
    stage_span.attr("from_version", static_cast<uint64_t>(uk.from_version));
    stage_span.attr("node_id", node_name_);
  }
  // Index the update infos by ciphertext id. Two infos for the same
  // ciphertext are a protocol violation — applying an arbitrary one
  // would corrupt the slot, so fail loudly instead.
  std::map<std::string, const abe::UpdateInfo*> by_ct;
  for (const abe::UpdateInfo& ui : infos) {
    if (!by_ct.emplace(ui.ct_id, &ui).second)
      throw SchemeError("CloudServer: duplicate update info for ciphertext '" +
                        ui.ct_id + "'");
  }

  // ---- Stage: pick the owner's revisions under shard read locks, keep
  // those with a slot at uk.from_version of uk.aid, decode the
  // undecoded ones as one batch, then select the affected slots and
  // deep-copy their files. All re-encryption below mutates only these
  // private copies, so any failure leaves the store byte-identical.
  StagedEpoch epoch;
  epoch.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::vector<Pick> picks;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lk(shards_[s].mu);
    for (const auto& [file_id, entry] : shards_[s].files)
      if (entry.owner_id == uk.owner_id) picks.push_back({s, file_id, entry.wire, entry.file});
  }
  const auto affected = [&](const abe::Ciphertext& ct) {
    const auto ver = ct.versions.find(uk.aid);
    return ver != ct.versions.end() && ver->second == uk.from_version;
  };
  // An undecoded revision is read through its slots' ciphertext fields
  // (the decoder's walk, no point decoded).
  std::erase_if(picks, [&](const Pick& pick) {
    if (pick.file)
      return std::none_of(pick.file->slots.begin(), pick.file->slots.end(),
                          [&](const SealedSlot& slot) { return affected(slot.key_ct); });
    const StoredFileView view = view_stored_file(*pick.wire);
    return std::none_of(view.slots.begin(), view.slots.end(), [&](const SlotView& slot) {
      return affected(abe::ciphertext_fields(*grp_, slot.key_ct));
    });
  });
  const auto undecoded =
      static_cast<uint64_t>(std::count_if(picks.begin(), picks.end(),
                                          [](const Pick& pick) { return !pick.file; }));
  decode(picks);
  if (stage_span.active()) stage_span.attr("decoded", undecoded);
  std::vector<StagedFile>& staged = epoch.files;
  for (const Pick& pick : picks) {
    const StoredFile& file = *pick.file;
    std::vector<size_t> slots;
    for (size_t i = 0; i < file.slots.size(); ++i) {
      const abe::Ciphertext& ct = file.slots[i].key_ct;
      if (!affected(ct)) continue;
      if (!by_ct.contains(ct.id))
        throw SchemeError("CloudServer: missing update info for ciphertext '" +
                          ct.id + "'");
      slots.push_back(i);
    }
    staged.push_back({pick.shard, pick.wire, std::make_shared<StoredFile>(file),
                      std::move(slots)});
  }
  if (staged.empty()) {
    if (stage_span.active()) stage_span.attr("outcome", "empty");
    return epoch;
  }

  // Flatten to per-slot work items and re-encrypt them as one batch:
  // every slot's pairing against the epoch's one UK1 in one engine
  // pair_batch (lane passes fanned across the pool) and every row sum
  // with one inversion. Each slot then passes its fault hook, in slot
  // order under its own span, just before it is written to its staged
  // copy.
  std::vector<abe::Ciphertext*> cts;
  std::vector<const abe::UpdateInfo*> slot_infos;
  for (StagedFile& sf : staged) {
    for (size_t i : sf.slot_indices) {
      abe::Ciphertext& ct = sf.staged->slots[i].key_ct;
      cts.push_back(&ct);
      slot_infos.push_back(by_ct.at(ct.id));
    }
  }
  // Build UK1's pairing line table up front so every slot takes the
  // precomputed path.
  engine::CryptoEngine::for_group(*grp_).warm_pair_precomp(uk.uk1);
  try {
    abe::reencrypt_batch(*grp_, cts, uk, slot_infos, [&](size_t k) {
      telemetry::Span slot_span =
          telemetry::Tracer::global().start_span("server.reencrypt_slot");
      if (slot_span.active()) {
        slot_span.attr("ct_id", cts[k]->id);
        slot_span.attr("node_id", node_name_);
      }
      if (fault_hook_) fault_hook_(cts[k]->id);
    });
  } catch (...) {
    // The staged copies, written or not, are simply dropped.
    m_.epochs_aborted->inc();
    throw;
  }
  if (stage_span.active()) {
    stage_span.attr("files", static_cast<uint64_t>(staged.size()));
    stage_span.attr("slots", static_cast<uint64_t>(cts.size()));
    stage_span.attr("outcome", "staged");
  }
  return epoch;
}

size_t CloudServer::commit(StagedEpoch epoch) {
  static telemetry::Histogram& epoch_ns =
      telemetry::MetricsRegistry::global().histogram("maabe_server_epoch_ns");
  if (epoch.files.empty()) return 0;
  // Every slot succeeded; swap the new revisions in under the shard
  // write locks. A file replaced by a concurrent write since staging
  // keeps the replacement (the epoch covered the files present at stage
  // time).
  size_t committed = 0;
  for (StagedFile& sf : epoch.files) {
    Bytes wire = serialize(*grp_, *sf.staged);
    Bytes hash = crypto::Sha256::digest(wire);
    Shard& sh = shards_[sf.shard];
    std::unique_lock lk(sh.mu);
    const auto it = sh.files.find(sf.staged->file_id);
    if (it == sh.files.end() || it->second.wire != sf.original) continue;
    Entry& e = it->second;
    e = Entry{std::make_shared<const Bytes>(std::move(wire)), e.version + 1, std::move(hash),
              std::move(e.owner_id), sf.staged};
    committed += sf.slot_indices.size();
  }
  m_.epochs_committed->inc();
  m_.reencrypted_slots->add(committed);
  epoch_ns.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count()) - epoch.start_ns);
  return committed;
}

void CloudServer::stage_reencrypt(uint64_t epoch_id, const abe::UpdateKey& uk,
                                  const std::vector<abe::UpdateInfo>& infos) {
  StagedEpoch epoch = stage(uk, infos);
  std::lock_guard<std::mutex> lock(ledger_mu_);
  if (!ledger_.emplace(epoch_id, std::move(epoch)).second)
    throw SchemeError("CloudServer: epoch " + std::to_string(epoch_id) +
                      " is already staged");
}

std::optional<size_t> CloudServer::commit_reencrypt(uint64_t epoch_id) {
  std::unique_lock lock(ledger_mu_);
  auto held = ledger_.extract(epoch_id);
  lock.unlock();
  if (held.empty()) return std::nullopt;
  return commit(std::move(held.mapped()));
}

bool CloudServer::abort_reencrypt(uint64_t epoch_id) {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  const auto held = ledger_.extract(epoch_id);
  if (!held.empty() && !held.mapped().files.empty()) m_.epochs_aborted->inc();
  return !held.empty();
}

std::set<uint64_t> CloudServer::staged_epoch_ids() const {
  std::set<uint64_t> ids;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  for (const auto& [id, epoch] : ledger_) ids.insert(id);
  return ids;
}

void CloudServer::abort_all_staged() {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  for (const auto& [id, epoch] : ledger_)
    if (!epoch.files.empty()) m_.epochs_aborted->inc();
  ledger_.clear();
}

size_t CloudServer::storage_bytes() const { return stats().bytes; }

size_t CloudServer::ciphertext_group_material_bytes() const {
  std::vector<Pick> picks;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lk(shards_[s].mu);
    for (const auto& [id, entry] : shards_[s].files) picks.push_back({s, id, entry.wire, entry.file});
  }
  decode(picks);
  size_t total = 0;
  for (const Pick& pick : picks)
    for (const SealedSlot& slot : pick.file->slots)
      total += abe::ciphertext_group_material_bytes(*grp_, slot.key_ct);
  return total;
}

ServerStats CloudServer::stats() const {
  ServerStats out;
  for (const Shard& sh : shards_) {
    std::shared_lock lk(sh.mu);
    out.files += sh.files.size();
    for (const auto& [id, entry] : sh.files) out.bytes += entry.wire->size();
  }
  out.stores = m_.stores->value();
  out.fetches = m_.fetches->value();
  out.reencrypted_slots = m_.reencrypted_slots->value();
  out.epochs_committed = m_.epochs_committed->value();
  out.epochs_aborted = m_.epochs_aborted->value();
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    for (const auto& [id, epoch] : ledger_) out.epochs_staged_open += !epoch.files.empty();
  }
  return out;
}

}  // namespace maabe::cloud
